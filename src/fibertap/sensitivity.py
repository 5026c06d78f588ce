"""Strain-optic phase sensitivity and anti-eavesdropping mitigation arithmetic.

Pressure on the fiber changes the optical phase through two competing
channels: physical elongation (axial strain) and the photoelastic index
change. For the mitigation comparison only two proportionalities matter:
the voice-induced phase scales linearly with the exposed fiber length and
inversely with the cable's bulk modulus; swapping the flat PC end face for
an angled APC one starves the tap of its probe echo instead, which weakens
the carrier rather than the phase.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .model import AcousticCoupling
from .noise import voice_rms_phase

#: Elastic small-strain bound used to validate strain inputs.
MAX_STRAIN = 1e-2


@dataclass(frozen=True)
class StrainState:
    """Axial and radial strain of the fiber core (dimensionless)."""

    axial_strain: float
    radial_strain: float

    def __post_init__(self):
        for name in ("axial_strain", "radial_strain"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigurationError(f"{name} must be finite")
            if abs(v) > MAX_STRAIN:
                raise ConfigurationError(
                    f"{name} magnitude {v} exceeds the elastic bound {MAX_STRAIN}")


@dataclass(frozen=True)
class PhotoelasticSpec:
    """Pockels coefficients and core index (fused-silica defaults)."""

    p11: float = 0.121
    p12: float = 0.270
    n: float = 1.468

    def __post_init__(self):
        if not 0 < self.p11 < 1:
            raise ConfigurationError(f"p11 must be in (0, 1), got {self.p11}")
        if not 0 < self.p12 < 1:
            raise ConfigurationError(f"p12 must be in (0, 1), got {self.p12}")
        if self.n <= 1:
            raise ConfigurationError(f"core index must be > 1, got {self.n}")


@dataclass(frozen=True)
class MitigationScenario:
    """One countermeasure configuration to compare against the baseline."""

    label: str
    sensing_length: float
    bulk_modulus_scale: float = 1.0
    reflection_amplitude: float = 0.2

    def __post_init__(self):
        if self.sensing_length < 0:
            raise ConfigurationError(
                f"scenario {self.label!r}: sensing_length must be >= 0")
        if self.bulk_modulus_scale < 1:
            raise ConfigurationError(
                f"scenario {self.label!r}: bulk_modulus_scale must be >= 1")
        if not 0 <= self.reflection_amplitude <= 1:
            raise ConfigurationError(
                f"scenario {self.label!r}: reflection_amplitude must be in [0, 1]")


@dataclass(frozen=True)
class MitigationRow:
    """Comparison table row: voice RMS phase and its change vs baseline."""

    label: str
    sensing_length: float
    bulk_modulus_scale: float
    reflection_amplitude: float
    signal_rms_rad: float
    delta_db_vs_baseline: float
    carrier_delta_db: float


def relative_phase_change(strain: StrainState, photo: PhotoelasticSpec) -> float:
    """Relative phase change of light in a strained fiber section.

    ``eps_z - (n^2 / 2) ((P11 + P12) eps_r + P12 eps_z)``: the elongation and
    strain-optic terms enter with opposite signs, which is what makes a
    pressure-insensitive coating possible in the first place.
    """
    photoelastic = (photo.p11 + photo.p12) * strain.radial_strain \
        + photo.p12 * strain.axial_strain
    return strain.axial_strain - (photo.n ** 2 / 2.0) * photoelastic


def absolute_phase_change(rel_change: float, length: float, wavelength: float,
                          n: float) -> float:
    """Phase change in rad over a fiber section: ``rel * 2 pi n L / lambda``."""
    if length < 0:
        raise ConfigurationError(f"length must be >= 0, got {length}")
    return rel_change * (2.0 * np.pi * n * length / wavelength)


def scenario_voice_rms(scenario: MitigationScenario, coupling: AcousticCoupling,
                       test_level_db: float) -> float:
    """Sine-equivalent voice RMS phase of a scenario at the test level.

    A cable `bulk_modulus_scale` times stiffer divides the coupling
    sensitivity by that factor.
    """
    stiffened = replace(coupling, sensitivity=coupling.sensitivity / scenario.bulk_modulus_scale)
    return voice_rms_phase(test_level_db, stiffened, scenario.sensing_length)


def compare_mitigations(baseline: MitigationScenario, variants,
                        coupling: AcousticCoupling,
                        test_level_db: float = 70.0) -> list[MitigationRow]:
    """Voice phase of each scenario relative to the baseline, in dB.

    The baseline appears as the first row with zero deltas. The carrier
    column reports the echo amplitude change (APC modeling); it affects the
    recoverable SNR, not the phase itself.
    """
    if baseline.sensing_length <= 0:
        raise ConfigurationError("baseline sensing_length must be > 0")
    base_rms = scenario_voice_rms(baseline, coupling, test_level_db)

    def row(s):
        rms = scenario_voice_rms(s, coupling, test_level_db)
        with np.errstate(divide="ignore"):
            delta = float(20.0 * np.log10(rms / base_rms)) if base_rms > 0 else float("nan")
            carrier = float(20.0 * np.log10(
                s.reflection_amplitude / baseline.reflection_amplitude)) \
                if baseline.reflection_amplitude > 0 else float("nan")
        return MitigationRow(
            label=s.label, sensing_length=s.sensing_length,
            bulk_modulus_scale=s.bulk_modulus_scale,
            reflection_amplitude=s.reflection_amplitude,
            signal_rms_rad=rms, delta_db_vs_baseline=delta,
            carrier_delta_db=carrier)

    return [row(baseline)] + [row(s) for s in variants]
