"""Config file loading, validation and digesting.

A run is fully described by one YAML key/value tree (see
``default_config.yaml`` for the documented schema), and that file is the
only place a setting's default is stated. User files may be partial: every
section merges over the packaged defaults key by key, a list replaces the
default list whole, and unknown keys are rejected by name.
"""

from __future__ import annotations

import copy
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


def _merge(base, override, path=""):
    """Deep-merge override into base, rejecting unknown keys; lists replace whole."""
    if not isinstance(override, dict):
        raise ConfigurationError(f"config section {path or '<root>'} must be a mapping")
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _number(section, key, where):
    if key not in section:
        raise ConfigurationError(f"missing config key: {where}.{key}")
    value = section[key]
    if value is None:
        raise ConfigurationError(f"config key {where}.{key} must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        rule = ""
        if isinstance(value, str) and re.fullmatch(_EXPONENT_TEXT, value):
            rule = ("; YAML reads a number with an exponent only when it has a dot "
                    "and a signed exponent, as 4.0e+5")
        raise ConfigurationError(
            f"config key {where}.{key} must be a number, got {value!r}{rule}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(
            f"config key {where}.{key} must be finite, got {value!r}")
    return number


def _integer(section, key, where):
    value = _number(section, key, where)
    if not value.is_integer():
        raise ConfigurationError(f"config key {where}.{key} must be an integer, got {value!r}")
    return int(value)


def _scenario(block, where) -> MitigationScenario:
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where} must be a mapping")
    if "label" not in block or not isinstance(block["label"], str):
        raise ConfigurationError(f"missing or invalid field: {where}.label")
    known = {"label", "sensing_length_m", "bulk_modulus_scale", "reflection_amplitude"}
    for key in block:
        if key not in known:
            raise ConfigurationError(f"unknown field: {where}.{key}")
    return MitigationScenario(
        label=block["label"],
        sensing_length=_number(block, "sensing_length_m", where),
        bulk_modulus_scale=_number(block, "bulk_modulus_scale", where),
        reflection_amplitude=_number(block, "reflection_amplitude", where),
    )


@dataclass(frozen=True)
class ScenarioSet:
    test_level_db: float
    baseline: MitigationScenario
    variants: tuple[MitigationScenario, ...]


@dataclass(frozen=True)
class NoiseSettings:
    enabled: bool
    flatten_below_hz: float
    snr_threshold: float

    def __post_init__(self):
        if self.flatten_below_hz < 0:
            raise ConfigurationError(
                f"noise.flatten_below_hz must be >= 0, got {self.flatten_below_hz}")
        if not self.snr_threshold > 0:
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
    laser_d, fiber_d = tree["laser"], tree["fiber"]
    ifo_d, coup_d = tree["interferometer"], tree["coupling"]
    band_d, demod_d = tree["band"], tree["demod"]
    enh_d, noise_d = tree["enhance"], tree["noise"]

    laser = LaserSpec(
        wavelength=_number(laser_d, "wavelength_m", "laser"),
        white_freq_psd=_number(laser_d, "white_freq_psd", "laser"),
        flicker_coeff=_number(laser_d, "flicker_coeff", "laser"))

    detect_fiber = FiberSpec(
        length=_number(ifo_d, "detect_length_m", "interferometer"),
        refractive_index=_number(fiber_d, "refractive_index", "fiber"),
        bulk_modulus_area_product=_number(fiber_d, "bulk_modulus_area_product_n", "fiber"),
        loss_angle=_number(fiber_d, "loss_angle", "fiber"),
        temperature=_number(fiber_d, "temperature_k", "fiber"))

    interferometer = InterferometerConfig(
        laser=laser,
        detect_fiber=detect_fiber,
        reference_length=_number(ifo_d, "reference_length_m", "interferometer"),
        sensing_length=_number(ifo_d, "sensing_length_m", "interferometer"),
        reflection_amplitude=_number(ifo_d, "reflection_amplitude", "interferometer"),
        intermediate_frequency=_number(ifo_d, "intermediate_frequency_hz", "interferometer"),
        sample_rate=_number(ifo_d, "sample_rate_hz", "interferometer"),
        initial_phase=_number(ifo_d, "initial_phase_rad", "interferometer"))

    coupling = AcousticCoupling(
        sensitivity=_number(coup_d, "sensitivity_rad_per_pa_m", "coupling"),
        spl_reference=_number(coup_d, "spl_reference_pa", "coupling"))

    band = AudioBand(f_low=_number(band_d, "f_low_hz", "band"),
                     f_high=_number(band_d, "f_high_hz", "band"))

    demod = DemodConfig(
        beat_frequency=interferometer.intermediate_frequency,
        highpass_cutoff=_number(demod_d, "highpass_cutoff_hz", "demod"),
        filter_order=_integer(demod_d, "filter_order", "demod"),
        audio_rate=_number(demod_d, "audio_rate_hz", "demod"))

    enhance = SpectralSubtractParams(
        frame_ms=_number(enh_d, "frame_ms", "enhance"),
        overlap=_number(enh_d, "overlap", "enhance"),
        oversubtraction=_number(enh_d, "oversubtraction", "enhance"),
        spectral_floor=_number(enh_d, "spectral_floor", "enhance"),
        silence_threshold_db=_number(enh_d, "silence_threshold_db", "enhance"))

    if not isinstance(noise_d.get("enabled"), bool):
        raise ConfigurationError("config key noise.enabled must be a boolean")
    noise = NoiseSettings(
        enabled=noise_d["enabled"],
        flatten_below_hz=_number(noise_d, "flatten_below_hz", "noise"),
        snr_threshold=_number(noise_d, "snr_threshold", "noise"))

    scen_d = tree["scenarios"]
    variants_d = scen_d["variants"] or []
    if not isinstance(variants_d, list):
        raise ConfigurationError("scenarios.variants must be a list")
    scenarios = ScenarioSet(
        test_level_db=_number(scen_d, "test_level_db", "scenarios"),
        baseline=_scenario(scen_d["baseline"], "scenarios.baseline"),
        variants=tuple(_scenario(v, f"scenarios.variants[{i}]")
                       for i, v in enumerate(variants_d)))

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
