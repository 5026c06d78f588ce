"""Config file loading, validation and digesting.

A run is fully described by one YAML key/value tree (see
``default_config.yaml`` for the documented schema). User files may be
partial; missing keys fall back to the packaged defaults, unknown keys are
rejected by name.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import yaml

from .demod import DemodConfig
from .enhance import SpectralSubtractParams
from .errors import ConfigurationError
from .model import AcousticCoupling, FiberSpec, InterferometerConfig, LaserSpec
from .noise import AudioBand
from .sensitivity import MitigationScenario


def _packaged_defaults() -> dict:
    text = resources.files("fibertap").joinpath("default_config.yaml").read_text()
    return yaml.safe_load(text)


def _merge(base, override, path=""):
    """Deep-merge override into base, rejecting unknown keys."""
    if not isinstance(override, dict):
        raise ConfigurationError(f"config section {path or '<root>'} must be a mapping")
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict) and key != "scenarios":
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _number(section, key, where, allow_none=False):
    if key not in section:
        raise ConfigurationError(f"missing config key: {where}.{key}")
    value = section[key]
    if value is None:
        if allow_none:
            return None
        raise ConfigurationError(f"config key {where}.{key} must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"config key {where}.{key} must be a number, got {value!r}")
    return float(value)


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
    enabled: bool = True
    flatten_below_hz: float = 10.0
    snr_threshold: float = 1.0

    def __post_init__(self):
        if self.flatten_below_hz < 0:
            raise ConfigurationError(
                f"noise.flatten_below_hz must be >= 0, got {self.flatten_below_hz}")


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

    def fiber(length):
        return FiberSpec(
            length=length,
            refractive_index=_number(fiber_d, "refractive_index", "fiber"),
            bulk_modulus_area_product=_number(
                fiber_d, "bulk_modulus_area_product_n", "fiber"),
            loss_angle=_number(fiber_d, "loss_angle", "fiber"),
            temperature=_number(fiber_d, "temperature_k", "fiber"))

    interferometer = InterferometerConfig(
        laser=laser,
        detect_fiber=fiber(_number(ifo_d, "detect_length_m", "interferometer")),
        reference_fiber=fiber(_number(ifo_d, "reference_length_m", "interferometer")),
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
        lowpass_cutoff=_number(demod_d, "lowpass_cutoff_hz", "demod", allow_none=True),
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
    if not isinstance(scen_d, dict):
        raise ConfigurationError("config section scenarios must be a mapping")
    for key in scen_d:
        if key not in ("test_level_db", "baseline", "variants"):
            raise ConfigurationError(f"unknown field: scenarios.{key}")
    variants_d = scen_d.get("variants") or []
    if not isinstance(variants_d, list):
        raise ConfigurationError("scenarios.variants must be a list")
    scenarios = ScenarioSet(
        test_level_db=_number(scen_d, "test_level_db", "scenarios"),
        baseline=_scenario(scen_d.get("baseline"), "scenarios.baseline"),
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
