"""Anti-eavesdropping mitigation arithmetic: the `sensitivity` table.

Each countermeasure is compared with the baseline tap through two
proportionalities of the calibrated coupling: the voice-induced phase scales
linearly with the exposed fiber length and inversely with the cable's bulk
modulus. Swapping the flat PC end face for an angled APC one starves the tap
of its probe echo instead, which weakens the carrier rather than the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigurationError, DomainError
from .model import AcousticCoupling
from .noise import voice_rms_phase


@dataclass(frozen=True)
class MitigationScenario:
    """One countermeasure configuration to compare against the baseline."""

    label: str
    sensing_length: float
    bulk_modulus_scale: float
    reflection_amplitude: float

    def __post_init__(self):
        if not 0 < self.sensing_length < math.inf:
            raise ConfigurationError(
                f"scenario {self.label!r}: sensing_length must be > 0, got {self.sensing_length}")
        if not 1 <= self.bulk_modulus_scale < math.inf:
            raise ConfigurationError(
                f"scenario {self.label!r}: bulk_modulus_scale must be >= 1")
        if not 0 < self.reflection_amplitude <= 1:
            raise ConfigurationError(f"scenario {self.label!r}: reflection_amplitude must be "
                                     f"in (0, 1], got {self.reflection_amplitude}")


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


def _db(ratio: float) -> float:
    """An amplitude ratio in dB, ``20 log10(ratio)``: -inf at 0, nan at nan."""
    return 20.0 * math.log10(ratio) if ratio else -math.inf


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
                        test_level_db: float) -> list[MitigationRow]:
    """Voice phase of each scenario relative to the baseline, in dB.

    The baseline appears as the first row with zero deltas. The carrier
    column reports the echo amplitude change (APC modeling); it affects the
    recoverable SNR, not the phase itself. A row with a value outside the
    float range raises `DomainError` naming its scenario.
    """
    def row(s):
        rms = scenario_voice_rms(s, coupling, test_level_db)
        delta = _db(rms / base_rms) if base_rms > 0 else math.nan
        carrier = _db(s.reflection_amplitude / baseline.reflection_amplitude)
        if not all(map(math.isfinite, (rms, delta, carrier))):
            raise DomainError(
                f"scenario {s.label!r} at {test_level_db!r} dB SPL: voice phase {rms!r} rad, "
                f"{delta!r} dB from the baseline's {base_rms!r} rad, outside the float range")
        return MitigationRow(
            label=s.label, sensing_length=s.sensing_length,
            bulk_modulus_scale=s.bulk_modulus_scale,
            reflection_amplitude=s.reflection_amplitude,
            signal_rms_rad=rms, delta_db_vs_baseline=delta,
            carrier_delta_db=carrier)

    base_rms = scenario_voice_rms(baseline, coupling, test_level_db)
    return [row(s) for s in (baseline, *variants)]
