"""Derivation of the calibrated constants shipped in the default config.

Neither the acoustic sensitivity nor the laser flicker coefficient is a
first-principles number here; both are pinned to quantitative anchors of the
measured system and regenerable from them:

* sensitivity: a 30 dB SPL tone on the sensing fiber produces the same RMS
  phase as the thermal noise of a 3 km detecting arm, so the thermal
  detection limit at 3 km is 30 dB by construction.
* flicker coefficient: with the white level fixed by the 100 Hz Lorentzian
  linewidth (S0 = 4 pi dv), the flicker term is chosen so a 100 m arm
  mismatch yields a 60 dB detection limit.
"""

from __future__ import annotations

from dataclasses import replace

from ._numpy import np
from .model import AcousticCoupling, FiberSpec, mismatch_to_delay
from .noise import AudioBand, thermal_rms, voice_rms_phase


def white_psd_from_linewidth(linewidth_hz: float) -> float:
    """One-sided white angular-frequency PSD of a Lorentzian line, 4 pi dv.

    This is the level that reproduces the coherence relation
    ``<dphi^2(tau)> = 2 pi dv |tau|`` when integrated through the delay
    transfer function.
    """
    return 4.0 * np.pi * linewidth_hz


def calibrate_sensitivity(fiber_template: FiberSpec, wavelength: float,
                          band: AudioBand, spl_reference: float,
                          sensing_length: float,
                          anchor_length: float = 3000.0,
                          anchor_level_db: float = 30.0) -> float:
    """Coupling sensitivity (rad / Pa m) pinned to the thermal anchor.

    The voice RMS phase is proportional to the sensitivity, so the anchor
    sensitivity is the thermal RMS over the voice RMS at unit sensitivity.
    """
    rms = thermal_rms(replace(fiber_template, length=anchor_length), wavelength, band)
    return float(rms / voice_rms_phase(anchor_level_db, AcousticCoupling(1.0, spl_reference),
                                       sensing_length))


def calibrate_flicker(white_freq_psd: float, coupling: AcousticCoupling,
                      band: AudioBand, refractive_index: float,
                      sensing_length: float,
                      anchor_mismatch: float = 100.0,
                      anchor_level_db: float = 60.0) -> float:
    """Flicker coefficient (rad^2 s^-2) pinned to the mismatch anchor."""
    tau0 = mismatch_to_delay(anchor_mismatch, refractive_index)
    target_rms = voice_rms_phase(anchor_level_db, coupling, sensing_length)
    target_var_rate = (target_rms / tau0) ** 2
    k = (target_var_rate - white_freq_psd * (band.f_high - band.f_low)) \
        / np.log(band.f_high / band.f_low)
    if k < 0:
        raise ValueError(
            "white frequency noise alone already exceeds the mismatch anchor; "
            "flicker coefficient would be negative")
    return float(k)
