import contextlib
import copy
import dataclasses
import inspect
import io
import re
from importlib import resources

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

import fibertap.model
from fibertap import (
    AcousticCoupling,
    AudioBand,
    DemodConfig,
    FiberSpec,
    InterferometerConfig,
    LaserSpec,
    MitigationScenario,
    SpectralSubtractParams,
    compare_mitigations,
    default_config,
    edge_guard,
    highpass,
    laser_rms,
    load_config,
    pressure_to_spl,
    spl_to_pressure,
)
from fibertap.calibrate import (
    calibrate_flicker,
    calibrate_sensitivity,
    white_psd_from_linewidth,
)
from fibertap.cli import main
from fibertap.config import dump_config
from fibertap.errors import ConfigurationError


class TestDefaults:
    def test_loads_and_validates(self, cfg):
        assert cfg.interferometer.sample_rate == 400e3
        assert cfg.interferometer.intermediate_frequency == 25e3
        assert cfg.band.f_low == 100.0 and cfg.band.f_high == 10000.0
        assert cfg.interferometer.arm_mismatch() == 0.0

    def test_digest_is_stable(self):
        assert default_config().digest() == default_config().digest()

    def test_white_psd_matches_linewidth(self, cfg):
        # the white level is that of the probe laser's 100 Hz Lorentzian line
        assert cfg.interferometer.laser.white_freq_psd == pytest.approx(
            white_psd_from_linewidth(100.0), rel=1e-12)

    def test_sensitivity_matches_thermal_anchor(self, cfg):
        expected = calibrate_sensitivity(
            cfg.interferometer.detect_fiber, cfg.interferometer.laser.wavelength,
            cfg.band, cfg.coupling.spl_reference,
            sensing_length=cfg.interferometer.sensing_length)
        assert cfg.coupling.sensitivity == pytest.approx(expected, rel=1e-9)

    def test_flicker_matches_mismatch_anchor(self, cfg):
        laser = cfg.interferometer.laser
        expected = calibrate_flicker(
            laser.white_freq_psd, cfg.coupling, cfg.band,
            cfg.interferometer.detect_fiber.refractive_index,
            sensing_length=cfg.interferometer.sensing_length)
        assert laser.flicker_coeff == pytest.approx(expected, rel=1e-9)

    def test_demod_is_a_demod_config(self, cfg):
        assert isinstance(cfg.demod, DemodConfig)
        assert cfg.demod.beat_frequency == cfg.interferometer.intermediate_frequency
        assert cfg.demod.audio_rate == 40000.0

    def test_enhance_params_resolution(self, cfg):
        assert cfg.enhance.resolve(16000.0)[:2] == (320, 160)

    def test_scenarios_present(self, cfg):
        labels = [v.label for v in cfg.scenarios.variants]
        assert cfg.scenarios.baseline.label == "pc-3m"
        assert "short-1m" in labels and "apc" in labels


class TestOneSourceOfDefaults:
    """The packaged config states every default: no settings dataclass has a
    field default and no function restates a setting as a default argument."""

    @pytest.mark.parametrize("cls", [
        LaserSpec, FiberSpec, InterferometerConfig, AcousticCoupling, AudioBand,
        DemodConfig, SpectralSubtractParams, MitigationScenario])
    def test_settings_dataclasses_have_no_defaults(self, cls):
        for field in dataclasses.fields(cls):
            assert field.default is dataclasses.MISSING, (cls.__name__, field.name)
            assert field.default_factory is dataclasses.MISSING, (cls.__name__, field.name)

    @pytest.mark.parametrize("function,name", [
        (spl_to_pressure, "spl_reference"), (pressure_to_spl, "spl_reference"),
        (calibrate_sensitivity, "spl_reference"), (calibrate_sensitivity, "sensing_length"),
        (calibrate_flicker, "sensing_length"), (highpass, "order"),
        (edge_guard, "highpass"), (compare_mitigations, "test_level_db"),
        (laser_rms, "form")])
    def test_functions_restate_no_setting(self, function, name):
        assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty

    def test_no_spl_reference_constant(self):
        assert not hasattr(fibertap.model, "SPL_REFERENCE_PA")


class TestUserOverrides:
    def test_partial_override(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("interferometer:\n  detect_length_m: 2000.0\n")
        cfg = load_config(p)
        assert cfg.interferometer.detect_fiber.length == 2000.0
        # untouched keys keep their defaults
        assert cfg.interferometer.sample_rate == 400e3

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("interferometer:\n  detect_len: 2000.0\n")
        with pytest.raises(ConfigurationError, match="interferometer.detect_len"):
            load_config(p)

    def test_unknown_section_named(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("lasers:\n  wavelength_m: 1.0e-6\n")
        with pytest.raises(ConfigurationError, match="lasers"):
            load_config(p)

    def test_partial_baseline_merges_field_by_field(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("scenarios:\n  baseline:\n    sensing_length_m: 5.0\n")
        default = default_config().scenarios.baseline
        assert load_config(p).scenarios.baseline == dataclasses.replace(default,
                                                                          sensing_length=5.0)

    def test_variants_list_replaces_the_default_list(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("scenarios:\n  variants:\n    - label: only\n"
                     "      sensing_length_m: 1.0\n      bulk_modulus_scale: 2.0\n"
                     "      reflection_amplitude: 0.1\n")
        assert load_config(p).scenarios.variants == (
            MitigationScenario("only", 1.0, 2.0, 0.1),)

    @pytest.mark.parametrize("text,key", [
        ("scenarios:\n  level_db: 60.0\n", "scenarios.level_db"),
        ("scenarios:\n  baseline:\n    reflector: 0.2\n", "scenarios.baseline.reflector"),
    ])
    def test_unknown_scenarios_key_named(self, tmp_path, text, key):
        p = tmp_path / "user.yaml"
        p.write_text(text)
        with pytest.raises(ConfigurationError, match=f"unknown config key: {re.escape(key)}$"):
            load_config(p)

    def test_malformed_scenario_names_field(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text(
            "scenarios:\n"
            "  test_level_db: 70.0\n"
            "  baseline:\n"
            "    label: base\n"
            "    sensing_length_m: 3.0\n"
            "    bulk_modulus_scale: 1.0\n"
            "    reflection_amplitude: 0.2\n"
            "  variants:\n"
            "    - label: broken\n"
            "      bulk_modulus_scale: 1.0\n"
            "      reflection_amplitude: 0.2\n")
        with pytest.raises(ConfigurationError,
                           match=r"scenarios.variants\[0\].sensing_length_m"):
            load_config(p)

    def test_non_numeric_value_rejected(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("band:\n  f_low_hz: low\n")
        with pytest.raises(ConfigurationError,
                           match=r"^config key band\.f_low_hz must be a number, got 'low'$"):
            load_config(p)

    # YAML 1.1 reads a number with an exponent only with a dot and a signed
    # exponent, so each of these is text, which the message explains
    @pytest.mark.parametrize("text", ["4e5", "4.0e5", "4e+5"])
    def test_exponent_read_as_text_exits_2_stating_the_rule(self, tmp_path, capsys, text):
        p = tmp_path / "user.yaml"
        p.write_text(f"interferometer:\n  sample_rate_hz: {text}\n")
        assert main(["print-config", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key interferometer.sample_rate_hz must be a number, got '{text}'; "
            "YAML reads a number with an exponent only when it has a dot and a signed "
            "exponent, as 4.0e+5\n")
        p.write_text("interferometer:\n  sample_rate_hz: 4.0e+5\n")
        assert load_config(p).interferometer.sample_rate == 4e5

    def test_unparseable_yaml(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("band: [unclosed\n")
        with pytest.raises(ConfigurationError):
            load_config(p)

    def test_invalid_physics_rejected(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("interferometer:\n  intermediate_frequency_hz: 300000.0\n")
        from fibertap.errors import NyquistError
        with pytest.raises(NyquistError):
            load_config(p)

    def test_negative_flatten_below_rejected(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("noise:\n  flatten_below_hz: -1.0\n")
        with pytest.raises(ConfigurationError, match="noise.flatten_below_hz"):
            load_config(p)

    def test_negative_reference_length_rejected(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("interferometer:\n  reference_length_m: -1.0\n")
        with pytest.raises(ConfigurationError, match="interferometer.reference_length"):
            load_config(p)

    @pytest.mark.parametrize("value", ["2.5", "0.5", "true"])
    def test_non_integer_filter_order_rejected(self, tmp_path, value):
        p = tmp_path / "user.yaml"
        p.write_text(f"demod:\n  filter_order: {value}\n")
        with pytest.raises(ConfigurationError, match="demod.filter_order"):
            load_config(p)

    def test_integral_float_filter_order_accepted(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("demod:\n  filter_order: 6.0\n")
        assert load_config(p).demod.filter_order == 6

    @pytest.mark.parametrize("key,value", [
        ("overlap", 1.0), ("overlap", 1.5), ("overlap", -0.1),
        ("frame_ms", 0), ("frame_ms", -5),
    ])
    def test_bad_enhance_framing_rejected(self, tmp_path, key, value):
        p = tmp_path / "user.yaml"
        p.write_text(f"enhance:\n  {key}: {value}\n")
        with pytest.raises(ConfigurationError, match=key):
            load_config(p)

    # the first two set the demod.lowpass_cutoff_hz key, which is gone
    @pytest.mark.parametrize("text,key", [
        ("demod:\n  lowpass_cutoff_hz: 25000.0\n", "demod.lowpass_cutoff"),
        ("demod:\n  lowpass_cutoff_hz: 12000.0\n"
         "interferometer:\n  intermediate_frequency_hz: 10000.0\n", "demod.lowpass_cutoff"),
        ("demod:\n  highpass_cutoff_hz: .inf\n", "demod.highpass_cutoff"),
        ("demod:\n  audio_rate_hz: .nan\n", "demod.audio_rate"),
    ])
    def test_demod_keys_checked_against_the_interferometer(self, tmp_path, text, key):
        p = tmp_path / "user.yaml"
        p.write_text(text)
        with pytest.raises(ConfigurationError, match=key):
            load_config(p)

    def test_linewidth_key_rejected(self, tmp_path):
        # white_freq_psd is the one key of the white frequency noise
        p = tmp_path / "user.yaml"
        p.write_text("laser:\n  linewidth_hz: 100.0\n")
        with pytest.raises(ConfigurationError,
                           match=r"^unknown config key: laser\.linewidth_hz$"):
            load_config(p)

    def test_lowpass_cutoff_key_rejected(self, tmp_path):
        # the demodulation FIR's edges follow from the band, the audio rate
        # and the beat; 12.5 kHz was the default of the removed key
        p = tmp_path / "user.yaml"
        p.write_text("demod:\n  lowpass_cutoff_hz: 12500.0\n")
        with pytest.raises(ConfigurationError,
                           match=r"^unknown config key: demod\.lowpass_cutoff_hz$"):
            load_config(p)

    def test_white_psd_override_accepted(self, tmp_path):
        p = tmp_path / "user.yaml"
        p.write_text("laser:\n  white_freq_psd: 2513.27\n")
        assert load_config(p).interferometer.laser.white_freq_psd == 2513.27

    def test_dump_round_trip(self, tmp_path, cfg):
        p = tmp_path / "dump.yaml"
        p.write_text(dump_config(cfg))
        again = load_config(p)
        assert again.digest() == cfg.digest()

    def test_override_changes_digest(self, tmp_path, cfg):
        p = tmp_path / "user.yaml"
        p.write_text("interferometer:\n  reference_length_m: 2306.0\n")
        other = load_config(p)
        assert other.digest() != cfg.digest()
        assert other.interferometer.arm_mismatch() == pytest.approx(100.0)


def value_leaves(tree, path=()):
    """(path, value) of every number, boolean and null in a config tree, list
    items included; the scenario labels are the only leaves left out."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from value_leaves(value, path + (key,))
    elif not isinstance(tree, str):
        yield path, tree


def set_leaf(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def key_name(path):
    """A leaf's name as config errors print it: scenarios.variants[0].label."""
    return re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("path", [
    pytest.param(path, id=".".join(map(str, path)))
    for path, value in value_leaves(default_config().raw)
    if not isinstance(value, bool)])
def test_non_finite_number_rejected_naming_the_key(tmp_path, path, value):
    tree = copy.deepcopy(default_config().raw)
    set_leaf(tree, path, value)
    config = tmp_path / "user.yaml"
    config.write_text(yaml.safe_dump(tree))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"config key {key_name(path)} must be finite")):
        load_config(config)


def test_packaged_file_is_the_schema():
    """A key takes its default's type, so the packaged file pins each one:
    every number is a finite float but the integer demod.filter_order, and
    the one list holds the item that every item of a user's list matches."""
    text = resources.files("fibertap").joinpath("default_config.yaml").read_text()
    tree = yaml.safe_load(text)
    for path, value in value_leaves(tree):
        if key_name(path) == "demod.filter_order":
            assert type(value) is int
        elif not isinstance(value, bool):
            assert type(value) is float and np.isfinite(value), key_name(path)
    lists = [f"{name}.{key}" for name, section in tree.items()
             for key, value in section.items() if isinstance(value, list)]
    assert lists == ["scenarios.variants"] and tree["scenarios"]["variants"]


def test_integer_past_the_float_range_rejected(tmp_path):
    config = tmp_path / "user.yaml"
    config.write_text("laser:\n  wavelength_m: 1" + "0" * 400 + "\n")
    with pytest.raises(ConfigurationError, match="laser.wavelength_m must be finite"):
        load_config(config)


def perturbed(value):
    if isinstance(value, bool):
        return not value
    return value * 1.5 if value else 0.5


#: Every command that reads the config, cheap tables first. The 0.25 s voice
#: is a 1 kHz tone rising 60 dB, so the recovered frames' energies are spread
#: finely enough that any silence threshold moves the silent set.
PIPELINE = (
    ["budget", "--sweep", "length", "--points", "3", "--out", "length.csv"],
    ["budget", "--sweep", "mismatch", "--include-thermal", "--points", "3",
     "--out", "mismatch.csv"],
    ["sensitivity", "--out", "mitigations.csv"],
    ["simulate", "--audio", "voice.wav", "--out", "het.wav", "--seed", "3",
     "--level-db", "70"],
    ["demod", "--in", "het.wav", "--out", "rec.wav"],
    ["enhance", "--in", "rec.wav", "--out", "enh.wav"],
)


def pipeline_outputs(d, config):
    """Each command's output files (not the manifests, which carry the
    config digest), run in directory `d` under `config`. A command that
    rejects the config (exit 2) yields its message instead."""
    fs = 400000
    t = np.arange(fs // 4) / fs
    wavfile.write(d / "voice.wav", fs,
                  (np.sin(2 * np.pi * 1000 * t) * 10 ** (3 * (4 * t - 1))).astype(np.float32))
    for argv in PIPELINE:
        out = argv[argv.index("--out") + 1]
        files = [str(d / a) if a.endswith((".csv", ".wav")) else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*files, "--config", str(config)])
        if code == 2:
            yield err.getvalue()
            continue
        assert code == 0, argv
        yield {p.name: p.read_bytes() for p in d.glob(out + "*")
               if not p.name.endswith(".manifest.json")}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("defaults")
    (d / "defaults.yaml").write_text(dump_config(default_config()))
    outputs = list(pipeline_outputs(d, d / "defaults.yaml"))
    assert all(isinstance(o, dict) for o in outputs)
    return outputs


@pytest.mark.parametrize("path,value", [
    pytest.param(path, value, id=".".join(map(str, path)))
    for path, value in value_leaves(default_config().raw)])
def test_every_config_key_has_an_effect_or_is_rejected(
        tmp_path, default_outputs, path, value):
    tree = copy.deepcopy(default_config().raw)
    set_leaf(tree, path, perturbed(value))
    config = tmp_path / "perturbed.yaml"
    config.write_text(yaml.safe_dump(tree))
    try:
        load_config(config)
    except ConfigurationError:
        return
    rejected = False
    for ours, default in zip(pipeline_outputs(tmp_path, config), default_outputs):
        if isinstance(ours, str):  # a command rejected the config; it names the key
            assert key_name(path) in ours, ours
            rejected = True
        elif ours != default:
            return
    if not rejected:
        pytest.fail(f"{key_name(path)} = {perturbed(value)} changes no output")
