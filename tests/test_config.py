import copy

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

from fibertap import DemodConfig, default_config, load_config
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
            cfg.band, sensing_length=cfg.interferometer.sensing_length)
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
        with pytest.raises(ConfigurationError, match="band.f_low_hz"):
            load_config(p)

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


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if value is None:  # the null lowpass cutoff: an explicit one below the beat
        return 10000.0
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
    config digest), run in directory `d` under `config`."""
    fs = 400000
    t = np.arange(fs // 4) / fs
    wavfile.write(d / "voice.wav", fs,
                  (np.sin(2 * np.pi * 1000 * t) * 10 ** (3 * (4 * t - 1))).astype(np.float32))
    for argv in PIPELINE:
        out = argv[argv.index("--out") + 1]
        files = [str(d / a) if a.endswith((".csv", ".wav")) else a for a in argv]
        assert main([*files, "--config", str(config)]) == 0, argv
        yield {p.name: p.read_bytes() for p in d.glob(out + "*")
               if not p.name.endswith(".manifest.json")}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("defaults")
    (d / "defaults.yaml").write_text(dump_config(default_config()))
    return list(pipeline_outputs(d, d / "defaults.yaml"))


@pytest.mark.parametrize("path,value", [
    pytest.param(path, value, id=".".join(map(str, path)))
    for path, value in value_leaves(default_config().raw)])
def test_every_config_key_has_an_effect_or_is_rejected(
        tmp_path, default_outputs, path, value):
    tree = copy.deepcopy(default_config().raw)
    leaf = tree
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = perturbed(value)
    config = tmp_path / "perturbed.yaml"
    config.write_text(yaml.safe_dump(tree))
    try:
        load_config(config)
    except ConfigurationError:
        return
    for ours, default in zip(pipeline_outputs(tmp_path, config), default_outputs):
        if ours != default:
            return
    pytest.fail(f"{'.'.join(map(str, path))} = {leaf[path[-1]]} changes no output")
