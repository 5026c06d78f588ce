"""Analytic noise densities, band RMS integrals and detection-limit budgets.

Two fundamental noise terms limit the tap. Fiber thermodynamic phase noise
has the one-sided density

    S_th(f) = (2 pi n / lambda)^2 * 2 kB T L gamma0 / (3 pi K A) * 1/f

and the laser frequency noise ``S0 + k/f`` reaches the measured phase through
the arm-delay transfer function

    S_la(f) = sin^2(pi f tau0) / (pi f)^2 * (S0 + k/f)

which for f*tau0 << 1 collapses to ``tau0^2 (S0 + k/f)``. Band RMS values
are the square roots of the band integrals; a sound is counted as detectable
once its RMS phase exceeds the total noise RMS (SNR = 1 criterion, threshold
configurable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, InputError, SynthesisError
from .model import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    AcousticCoupling,
    FiberSpec,
    InterferometerConfig,
    LaserSpec,
    pressure_to_spl,
    spl_to_pressure,
)
from .trace import PHASE, SampledTrace

#: Default frequency below which 1/f targets are flattened before synthesis.
DEFAULT_FLATTEN_HZ = 10.0


@dataclass(frozen=True)
class AudioBand:
    """Audio integration band [f_low, f_high] in Hz (defaults 100 Hz .. 10 kHz)."""

    f_low: float = 100.0
    f_high: float = 10000.0

    def __post_init__(self):
        if not 0 < self.f_low < self.f_high:
            raise ConfigurationError(
                f"band requires 0 < f_low < f_high, got [{self.f_low}, {self.f_high}]")


@dataclass(frozen=True)
class NoiseBudget:
    """Per-source band RMS phase and the resulting detection limit."""

    band: AudioBand
    thermal_rms: float
    laser_rms: float
    total_rms: float
    detection_limit_db: float

    def __post_init__(self):
        for name in ("thermal_rms", "laser_rms", "total_rms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"NoiseBudget.{name} must be >= 0")
        rss = np.hypot(self.thermal_rms, self.laser_rms)
        if not np.isclose(self.total_rms, rss, rtol=1e-9, atol=0.0):
            raise ConfigurationError(
                f"NoiseBudget.total_rms {self.total_rms} is not the root-sum-square "
                f"of its components ({rss})")


@dataclass(frozen=True)
class BudgetRow:
    """One sweep point of a detection-limit table."""

    x_value: float
    thermal_rms: float
    laser_rms: float
    total_rms: float
    limit_db: float


def _check_positive_freq(f):
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise DomainError("frequency must be > 0")
    return f


def thermal_psd(fiber: FiberSpec, wavelength: float, f):
    """One-sided PSD of fiber thermal phase noise at frequency f, rad^2/Hz.

    Scales linearly with fiber length and as 1/f.
    """
    f = _check_positive_freq(f)
    scale = (2.0 * np.pi * fiber.refractive_index / wavelength) ** 2 \
        * (2.0 * BOLTZMANN * fiber.temperature * fiber.length * fiber.loss_angle) \
        / (3.0 * np.pi * fiber.bulk_modulus_area_product)
    return scale / f


def thermal_rms(fiber: FiberSpec, wavelength: float, band: AudioBand) -> float:
    """Band RMS of thermal phase noise, closed form sqrt(C L ln(f_high/f_low))."""
    if fiber.length == 0:
        return 0.0
    c1 = thermal_psd(fiber, wavelength, 1.0)  # C*L, since S(f) = C*L/f
    return float(np.sqrt(c1 * np.log(band.f_high / band.f_low)))


def laser_freq_psd(laser: LaserSpec, f):
    """One-sided PSD of laser angular-frequency fluctuations S0 + k/f."""
    f = _check_positive_freq(f)
    return laser.white_freq_psd + laser.flicker_coeff / f


def laser_phase_psd_full(laser: LaserSpec, tau0: float, f):
    """Delay-demodulated laser phase-noise PSD, rad^2/Hz.

    ``sin^2(pi f tau0) / (pi f)^2 * (S0 + k/f)``; exact for any delay.
    """
    if tau0 < 0:
        raise DomainError(f"tau0 must be >= 0, got {tau0}")
    f = _check_positive_freq(f)
    h = np.sin(np.pi * f * tau0) ** 2 / (np.pi * f) ** 2
    return h * laser_freq_psd(laser, f)


def laser_phase_psd_approx(laser: LaserSpec, tau0: float, f):
    """Small-delay limit tau0^2 (S0 + k/f) of `laser_phase_psd_full`.

    Valid for f*tau0 << 1 (about 0.1 % high at f*tau0 = 0.05); always an
    upper bound on the full form since sin(x) <= x.
    """
    if tau0 < 0:
        raise DomainError(f"tau0 must be >= 0, got {tau0}")
    return tau0 ** 2 * laser_freq_psd(laser, f)


def laser_rms(laser: LaserSpec, tau0: float, band: AudioBand, form: str = "approx") -> float:
    """Band RMS of laser-induced phase noise.

    The approx form has the closed expression
    ``tau0 sqrt(S0 (f_high - f_low) + k ln(f_high/f_low))``; the full form is
    integrated by 64-point Gauss-Legendre on 8 log-spaced panels, split again
    at every half period 1/(2 tau0) of sin^2(pi f tau0).
    """
    if tau0 < 0:
        raise DomainError(f"tau0 must be >= 0, got {tau0}")
    if tau0 == 0.0:
        return 0.0
    if form == "approx":
        var = tau0 ** 2 * (laser.white_freq_psd * (band.f_high - band.f_low)
                           + laser.flicker_coeff * np.log(band.f_high / band.f_low))
        return float(np.sqrt(var))
    if form == "full":
        half = 0.5 / tau0
        breaks = np.arange(np.floor(band.f_low / half) + 1, np.ceil(band.f_high / half)) * half
        edges = np.unique(np.concatenate([np.geomspace(band.f_low, band.f_high, 9), breaks]))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        mid, rad = (edges[1:] + edges[:-1])[:, None] / 2, np.diff(edges)[:, None] / 2
        var = np.sum(rad * weights * laser_phase_psd_full(laser, tau0, mid + rad * nodes))
        return float(np.sqrt(var))
    raise ConfigurationError(f"form must be 'full' or 'approx', got {form!r}")


def mismatch_to_delay(mismatch: float, refractive_index: float) -> float:
    """Arm length mismatch (m) to differential delay tau0 = n * mismatch / c."""
    if mismatch < 0:
        raise DomainError(f"mismatch must be >= 0, got {mismatch}")
    return refractive_index * mismatch / SPEED_OF_LIGHT


def synthesize_colored_noise(psd, n_samples: int, sample_rate: float, seed: int,
                             flatten_below: float = DEFAULT_FLATTEN_HZ) -> SampledTrace:
    """Draw a Gaussian time series whose one-sided PSD matches ``psd(f)``.

    White Gaussian spectra are shaped in the frequency domain and inverse
    transformed, which gives exact PSD control and bit-reproducible output
    for a fixed seed. Divergent 1/f targets are flattened below
    `flatten_below` so the total power stays finite; that region lies far
    under the audio band and is removed by the downstream high-pass anyway.

    Parameters
    ----------
    psd : callable
        Vectorized one-sided PSD in rad^2/Hz, evaluated on (0, fs/2].
    n_samples : int
        Number of output samples, >= 2.
    sample_rate : float
        Output sample rate in Hz.
    seed : int
        Seed of the spectral draw.
    flatten_below : float
        Frequencies below this are evaluated at `flatten_below` instead.

    Returns
    -------
    SampledTrace
        Real phase trace with zero mean (DC bin excluded).
    """
    if n_samples < 2:
        raise InputError(f"n_samples must be >= 2, got {n_samples}")
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    f_eval = np.maximum(freqs[1:], flatten_below) if flatten_below > 0 else freqs[1:]
    target = np.zeros_like(freqs)
    target[1:] = np.asarray(psd(f_eval), dtype=float)
    if not np.all(np.isfinite(target)) or np.any(target < 0):
        raise SynthesisError("target PSD is non-finite or negative inside the band")

    rng = np.random.default_rng(seed)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    # E|X_k|^2 = S_k * fs * N / 2 makes the one-sided periodogram match S_k.
    spectrum = (re + 1j * im) / np.sqrt(2.0) * np.sqrt(target * sample_rate * n_samples / 2.0)
    spectrum[0] = 0.0
    if n_samples % 2 == 0:
        # real Nyquist bin carries no one-sided factor of two
        spectrum[-1] = re[-1] * np.sqrt(target[-1] * sample_rate * n_samples)
    samples = np.fft.irfft(spectrum, n=n_samples)
    return SampledTrace(sample_rate, samples, PHASE)


def system_phase_noise_psd(config: InterferometerConfig, f):
    """Total phase-noise PSD of a configured tap: thermal + laser (full form)."""
    f = np.asarray(f, dtype=float)
    psd = thermal_psd(config.detect_fiber, config.laser.wavelength, f)
    tau0 = config.delay_mismatch()
    if tau0 > 0:
        psd = psd + laser_phase_psd_full(config.laser, tau0, f)
    return psd


def synthesize_system_noise(config: InterferometerConfig, n_samples: int, seed: int,
                            flatten_below: float = DEFAULT_FLATTEN_HZ) -> SampledTrace:
    """Realize the configured tap's total phase noise as a time series."""
    return synthesize_colored_noise(
        lambda f: system_phase_noise_psd(config, f),
        n_samples, config.sample_rate, seed, flatten_below=flatten_below)


def voice_rms_phase(level_db: float, coupling: AcousticCoupling,
                    sensing_length: float) -> float:
    """RMS phase of a sine at the given dB SPL level on the sensing fiber."""
    amplitude = coupling.sensitivity * sensing_length \
        * spl_to_pressure(level_db, coupling.spl_reference)
    return float(amplitude / np.sqrt(2.0))


def phase_rms_to_spl(rms_phase: float, coupling: AcousticCoupling,
                     sensing_length: float) -> float:
    """Sound level whose sine-equivalent RMS phase equals `rms_phase`.

    Inverse of `voice_rms_phase`; returns -inf for zero phase.
    """
    if sensing_length <= 0:
        raise ConfigurationError(f"sensing_length must be > 0, got {sensing_length}")
    amplitude = rms_phase * np.sqrt(2.0)
    return float(pressure_to_spl(
        amplitude / (coupling.sensitivity * sensing_length), coupling.spl_reference))


def compute_noise_budget(config: InterferometerConfig, coupling: AcousticCoupling,
                         band: AudioBand, form: str = "approx",
                         snr_threshold: float = 1.0) -> NoiseBudget:
    """Band noise budget of a configured tap and its detection limit."""
    th = thermal_rms(config.detect_fiber, config.laser.wavelength, band)
    la = laser_rms(config.laser, config.delay_mismatch(), band, form=form)
    total = float(np.hypot(th, la))
    limit = phase_rms_to_spl(snr_threshold * total, coupling, config.sensing_length)
    return NoiseBudget(band=band, thermal_rms=th, laser_rms=la,
                       total_rms=total, detection_limit_db=limit)


def detection_limit_vs_length(lengths, coupling: AcousticCoupling, sensing_length: float,
                              band: AudioBand, config: InterferometerConfig,
                              snr_threshold: float = 1.0) -> list[BudgetRow]:
    """Thermal-noise detection limit versus detecting-arm length.

    Each row carries the thermal band RMS for a detecting arm of that length
    (material constants taken from the configured detecting fiber) and the
    smallest sound level whose sine-equivalent RMS phase exceeds it. The
    laser column is zero: this sweep isolates the thermal limit.
    """
    lengths = list(lengths)
    if not lengths:
        raise InputError("lengths must be non-empty")
    template = config.detect_fiber
    rows = []
    for length in lengths:
        if length < 0:
            raise InputError(f"lengths must be >= 0, got {length}")
        th = thermal_rms(replace(template, length=float(length)), config.laser.wavelength, band)
        limit = phase_rms_to_spl(snr_threshold * th, coupling, sensing_length) \
            if th > 0 else float("-inf")
        rows.append(BudgetRow(x_value=float(length), thermal_rms=th,
                              laser_rms=0.0, total_rms=th, limit_db=limit))
    return rows


def detection_limit_vs_mismatch(mismatches, laser: LaserSpec, coupling: AcousticCoupling,
                                sensing_length: float, band: AudioBand,
                                config: InterferometerConfig,
                                include_thermal: bool = False,
                                snr_threshold: float = 1.0) -> list[BudgetRow]:
    """Laser-noise detection limit versus arm length mismatch.

    Uses the small-delay closed form (linear in tau0, hence in mismatch).
    With ``include_thermal`` the configured detecting arm's thermal RMS is
    added in root-sum-square to the budget; by default the sweep isolates
    the laser term.
    """
    mismatches = list(mismatches)
    if not mismatches:
        raise InputError("mismatches must be non-empty")
    n = config.detect_fiber.refractive_index
    th = thermal_rms(config.detect_fiber, laser.wavelength, band) if include_thermal else 0.0
    rows = []
    for mismatch in mismatches:
        if mismatch < 0:
            raise InputError(f"mismatches must be >= 0, got {mismatch}")
        tau0 = mismatch_to_delay(float(mismatch), n)
        la = laser_rms(laser, tau0, band, form="approx")
        total = float(np.hypot(th, la))
        limit = phase_rms_to_spl(snr_threshold * total, coupling, sensing_length) \
            if total > 0 else float("-inf")
        rows.append(BudgetRow(x_value=float(mismatch), thermal_rms=th,
                              laser_rms=la, total_rms=total, limit_db=limit))
    return rows
