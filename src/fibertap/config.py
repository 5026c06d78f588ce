"""Config file loading, validation and digesting.

A run is fully described by one YAML key/value tree. ``default_config.yaml``
is its schema: the only place a setting's default is stated, and the type of
each default is the type its key takes. User files may be partial: every
section merges over the packaged defaults key by key, a list replaces the
default list whole, and unknown keys are rejected by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from importlib import resources

import yaml

from .demod import DemodConfig
from .enhance import SpectralSubtractParams
from .errors import ConfigurationError
from .model import AcousticCoupling, FiberSpec, InterferometerConfig, LaserSpec
from .noise import AudioBand
from .sensitivity import MitigationScenario


#: A number with an exponent that YAML 1.1 reads as text (no dot, or an
#: unsigned exponent), such as 4e5, 4.0e5 or 4e+5.
_EXPONENT_TEXT = r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+"


def _packaged_defaults() -> dict:
    text = resources.files("fibertap").joinpath("default_config.yaml").read_text()
    return yaml.safe_load(text)


def _shown(value) -> str:
    return "null" if value is None else repr(value)


def _merge(base, override, path="", whole=False):
    """Walk override over base, the packaged tree, which states each type.

    A mapping merges key by key and rejects unknown keys; a list replaces the
    default whole, each item a mapping with exactly the keys of the default's
    first item; a leaf takes its default's type: a bool, text, or a finite
    number, an integer where the default is one.
    """
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise ConfigurationError(f"config section {path or '<root>'} must be a mapping")
        merged = dict(base)
        for key, value in override.items():
            where = f"{path}.{key}" if path else key
            if key not in base:
                raise ConfigurationError(f"unknown config key: {where}")
            merged[key] = _merge(base[key], value, where)
        missing = [key for key in base if key not in override]
        if whole and missing:
            raise ConfigurationError(f"missing config key: {path}.{missing[0]}")
        return merged
    if isinstance(base, list):
        if not isinstance(override, list):
            raise ConfigurationError(f"config key {path} must be a list, got {_shown(override)}")
        return [_merge(base[0], item, f"{path}[{i}]", whole=True)
                for i, item in enumerate(override)]
    if isinstance(base, (bool, str)):
        if not isinstance(override, type(base)):
            kind = "a boolean" if isinstance(base, bool) else "text"
            raise ConfigurationError(f"config key {path} must be {kind}, got {_shown(override)}")
        return override
    if isinstance(override, bool) or not isinstance(override, (int, float)):
        rule = ""
        if isinstance(override, str) and re.fullmatch(_EXPONENT_TEXT, override):
            rule = ("; YAML reads a number with an exponent only when it has a dot "
                    "and a signed exponent, as 4.0e+5")
        raise ConfigurationError(
            f"config key {path} must be a number, got {_shown(override)}{rule}")
    try:
        number = float(override)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"config key {path} must be finite, got {override!r}")
    if isinstance(base, int):
        if not number.is_integer():
            raise ConfigurationError(f"config key {path} must be an integer, got {number!r}")
        return int(number)
    return number


@dataclass(frozen=True)
class ScenarioSet:
    test_level_db: float
    baseline: MitigationScenario
    variants: tuple[MitigationScenario, ...]

    def __post_init__(self):
        if not math.isfinite(self.test_level_db):
            raise ConfigurationError(
                f"scenarios.test_level_db must be finite, got {self.test_level_db}")


@dataclass(frozen=True)
class NoiseSettings:
    enabled: bool
    flatten_below_hz: float
    snr_threshold: float

    def __post_init__(self):
        if not 0 <= self.flatten_below_hz < math.inf:
            raise ConfigurationError(
                f"noise.flatten_below_hz must be >= 0, got {self.flatten_below_hz}")
        if not 0 < self.snr_threshold < math.inf:
            raise ConfigurationError(
                f"noise.snr_threshold must be > 0, got {self.snr_threshold}")


@dataclass(frozen=True)
class SimulationConfig:
    """Typed view of one resolved config tree."""

    interferometer: InterferometerConfig
    coupling: AcousticCoupling
    band: AudioBand
    demod: DemodConfig
    enhance: SpectralSubtractParams
    noise: NoiseSettings
    scenarios: ScenarioSet
    raw: dict

    def digest(self) -> str:
        """Stable sha256 of the resolved configuration tree."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _build(tree: dict) -> SimulationConfig:
    """The typed view of a resolved tree: the packaged one, or `_merge`'s."""
    laser_d, fiber_d = tree["laser"], tree["fiber"]
    ifo_d, coup_d = tree["interferometer"], tree["coupling"]
    demod_d, enh_d, scen_d = tree["demod"], tree["enhance"], tree["scenarios"]

    laser = LaserSpec(wavelength=laser_d["wavelength_m"],
                      white_freq_psd=laser_d["white_freq_psd"],
                      flicker_coeff=laser_d["flicker_coeff"])

    detect_fiber = FiberSpec(
        length=ifo_d["detect_length_m"],
        refractive_index=fiber_d["refractive_index"],
        bulk_modulus_area_product=fiber_d["bulk_modulus_area_product_n"],
        loss_angle=fiber_d["loss_angle"],
        temperature=fiber_d["temperature_k"])

    interferometer = InterferometerConfig(
        laser=laser,
        detect_fiber=detect_fiber,
        reference_length=ifo_d["reference_length_m"],
        sensing_length=ifo_d["sensing_length_m"],
        reflection_amplitude=ifo_d["reflection_amplitude"],
        intermediate_frequency=ifo_d["intermediate_frequency_hz"],
        sample_rate=ifo_d["sample_rate_hz"],
        initial_phase=ifo_d["initial_phase_rad"])

    coupling = AcousticCoupling(sensitivity=coup_d["sensitivity_rad_per_pa_m"],
                                spl_reference=coup_d["spl_reference_pa"])

    band = AudioBand(f_low=tree["band"]["f_low_hz"], f_high=tree["band"]["f_high_hz"])

    demod = DemodConfig(
        beat_frequency=interferometer.intermediate_frequency,
        highpass_cutoff=demod_d["highpass_cutoff_hz"],
        filter_order=demod_d["filter_order"],
        audio_rate=demod_d["audio_rate_hz"])

    enhance = SpectralSubtractParams(
        frame_ms=enh_d["frame_ms"],
        overlap=enh_d["overlap"],
        oversubtraction=enh_d["oversubtraction"],
        spectral_floor=enh_d["spectral_floor"],
        silence_threshold_db=enh_d["silence_threshold_db"])

    noise = NoiseSettings(**tree["noise"])

    def scenario(d):
        return MitigationScenario(label=d["label"], sensing_length=d["sensing_length_m"],
                                  bulk_modulus_scale=d["bulk_modulus_scale"],
                                  reflection_amplitude=d["reflection_amplitude"])

    scenarios = ScenarioSet(test_level_db=scen_d["test_level_db"],
                            baseline=scenario(scen_d["baseline"]),
                            variants=tuple(map(scenario, scen_d["variants"])))

    return SimulationConfig(
        interferometer=interferometer, coupling=coupling, band=band,
        demod=demod, enhance=enhance, noise=noise, scenarios=scenarios,
        raw=tree)


def default_config() -> SimulationConfig:
    """The packaged default configuration."""
    return _build(_packaged_defaults())


def load_config(path=None) -> SimulationConfig:
    """Load a YAML config file merged over the packaged defaults."""
    if path is None:
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            user = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if user is None:
        user = {}
    return _build(_merge(_packaged_defaults(), user))


def dump_config(config: SimulationConfig) -> str:
    """Resolved configuration as YAML text."""
    return yaml.safe_dump(config.raw, sort_keys=False)
