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

import math
import sys
from dataclasses import dataclass, replace

from ._numpy import np
from .errors import ConfigurationError, DomainError, FiberTapError, InputError, SynthesisError
from .model import (
    BOLTZMANN,
    AcousticCoupling,
    FiberSpec,
    InterferometerConfig,
    LaserSpec,
    mismatch_to_delay,
    pressure_to_spl,
    spl_to_pressure,
)
from .trace import PHASE, SampledTrace


#: Euler's constant, the constant term of Ci's power series
EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class AudioBand:
    """Audio integration band [f_low, f_high] in Hz."""

    f_low: float
    f_high: float

    def __post_init__(self):
        if not 0 < self.f_low < self.f_high < math.inf:
            raise ConfigurationError(
                f"band requires 0 < f_low < f_high, got [{self.f_low}, {self.f_high}]")


@dataclass(frozen=True)
class NoiseBudget:
    """Per-source band RMS phase and the resulting detection limit."""

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


def _sici(x: float) -> tuple[float, float]:
    """Sine and cosine integrals at 0 < x < inf (Abramowitz & Stegun ch. 5).

    (Si, Ci) from their power series for x <= 2. Above 2, the remainders of
    their leading asymptotic terms, ``(Si - pi/2 + cos x / x, Ci - sin x / x)``,
    from the continued fraction ``e^(ix) E1(ix) = 1/(1 + ix - t)`` (Numerical
    Recipes' ``cisi``) less its ``1/(ix)``, formed as ``(t - 1)/(ix (1 + ix - t))``
    so that they keep their relative precision at any x.
    """
    if x <= 2.0:
        # sum of (ix)^n / (n n!), n >= 1: odd n make Si, even n Ci - gamma - ln x
        n, term = 1, 1j * x
        total = term
        while abs(term) > 1e-17 * abs(total):
            n += 1
            term *= 1j * x / n
            total += term / n
        return total.imag, EULER_GAMMA + math.log(x) + total.real
    # t = 1/(3 + ix - 2^2/(5 + ix - 3^2/(7 + ix - ...))) by Lentz's method; c = inf makes c = b
    b = complex(3.0, x)
    c, d = math.inf, 1.0 / b
    t = d
    for j in range(2, 200):
        b += 2.0
        d = 1.0 / (b - j * j * d)
        c = b - j * j / c
        t *= c * d
        if abs(c * d - 1.0) <= 4e-16:
            break
    rest = (t - 1.0) / (complex(1.0, x) - t) / complex(0.0, x)
    rest *= complex(math.cos(x), -math.sin(x))  # -(Ci - sin x/x) + i (Si - pi/2 + cos x/x)
    return rest.imag, -rest.real


def laser_rms(laser: LaserSpec, tau0: float, band: AudioBand, form: str) -> float:
    """Band RMS of laser-induced phase noise, in closed form.

    approx: ``tau0 sqrt(S0 (f_high - f_low) + k ln(f_high/f_low))``. full:
    with a = 2 pi tau0 and x = a f, ``[S0 a dA + k a^2 dB] / (2 pi^2)`` over the
    band's ends for ``A = Si - (1 - cos x)/x`` and
    ``B = Ci/2 - (1 - cos x)/(2 x^2) - sin x/(2x)`` (`_sici`), or the approx
    form where a f_high < 1e-8, exact to rounding there. A phase a f or its
    square past the normal float range, or a band variance past the float
    range or below it although the laser has noise, raises `DomainError`.
    """
    if tau0 < 0:
        raise DomainError(f"tau0 must be >= 0, got {tau0}")
    if tau0 == 0.0:
        return 0.0
    a = 2.0 * math.pi * tau0
    if form == "full" and a * band.f_high >= 1e-8:
        x1, x2 = a * band.f_low, a * band.f_high
        if not (sys.float_info.min <= x1 and x2 * x2 < math.inf):
            raise DomainError(f"the delay phase 2 pi tau0 f over the band, [{x1!r}, {x2!r}] "
                              "rad, is outside the normal float range")
        ends = []
        for x in (x1, x2):
            si, ci = _sici(x)
            h = x / 2.0
            s = math.sin(h) / h  # 1 - cos x = 2 sin^2(h): (1 - cos x)/x = h s^2
            ends.append((si - h * s * s, ci / 2.0 - s * s / 4.0 - s * math.cos(h) / 2.0)
                        if x <= 2.0 else (si - 1.0 / x, ci / 2.0 - s * s / 4.0))  # A - pi/2
        (a1, b1), (a2, b2) = ends
        a2 += math.pi / 2.0 if x1 <= 2.0 < x2 else 0.0
        var = (laser.white_freq_psd * a * (a2 - a1)
               + laser.flicker_coeff * a * a * (b2 - b1)) / (2.0 * math.pi ** 2)
    elif form in ("full", "approx"):
        # Python floats, so that a product past the float range is inf
        # without numpy's warning; only the power raises
        try:
            var = tau0 ** 2 * (laser.white_freq_psd * (band.f_high - band.f_low)
                               + laser.flicker_coeff * float(np.log(band.f_high / band.f_low)))
        except OverflowError:
            var = math.inf
    else:
        raise ConfigurationError(f"form must be 'full' or 'approx', got {form!r}")
    noisy = laser.white_freq_psd > 0 or laser.flicker_coeff > 0
    if not var < math.inf or (noisy and var < sys.float_info.min):
        raise DomainError(
            f"the laser phase variance at tau0 = {tau0!r} s is {var!r} rad^2, "
            "outside the normal float range")
    return float(np.sqrt(var))


def synthesize_colored_noise(psd, n_samples: int, sample_rate: float, seed: int,
                             flatten_below: float) -> SampledTrace:
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
        Frequencies below this are evaluated at `flatten_below` instead
        (``noise.flatten_below_hz`` in the config); 0 flattens nothing.

    Returns
    -------
    SampledTrace
        Real phase trace with zero mean (DC bin excluded).
    """
    if n_samples < 2:
        raise InputError(f"n_samples must be >= 2, got {n_samples}")
    # one bin-sized buffer holds the frequencies, clamped, then the target PSD
    # (its DC bin stays 0), then its scale
    target = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    f_eval = target[1:]
    if flatten_below > 0:
        np.maximum(f_eval, flatten_below, out=f_eval)
    f_eval[:] = np.asarray(psd(f_eval), dtype=float)
    if not np.all(np.isfinite(target)) or np.any(target < 0):
        raise SynthesisError("target PSD is non-finite or negative inside the band")

    rng = np.random.default_rng(seed)
    spectrum = np.empty(target.size, dtype=complex)
    normal = np.empty(target.size)  # both halves are drawn through it
    spectrum.real = rng.standard_normal(out=normal)
    spectrum.imag = rng.standard_normal(out=normal)
    del normal
    # real Nyquist bin carries no one-sided factor of two
    nyquist = spectrum[-1].real * np.sqrt(target[-1] * sample_rate * n_samples)
    # E|X_k|^2 = S_k * fs * N / 2 makes the one-sided periodogram match S_k.
    # In place, with the bytes of (re + 1j im) / sqrt(2) * sqrt(S fs N / 2):
    # numpy divides a complex by a real through its reciprocal.
    target *= sample_rate
    target *= n_samples
    target /= 2.0
    spectrum *= 1.0 / np.sqrt(2.0)
    spectrum *= np.sqrt(target, out=target)
    del target, f_eval
    spectrum[0] = 0.0
    if n_samples % 2 == 0:
        spectrum[-1] = nyquist
    samples = np.fft.irfft(spectrum, n=n_samples)
    return SampledTrace._adopt(sample_rate, samples, PHASE)


def system_phase_noise_psd(config: InterferometerConfig, f):
    """Total phase-noise PSD of a configured tap: thermal + laser (full form)."""
    f = np.asarray(f, dtype=float)
    psd = thermal_psd(config.detect_fiber, config.laser.wavelength, f)
    tau0 = config.delay_mismatch()
    if tau0 > 0:
        psd = psd + laser_phase_psd_full(config.laser, tau0, f)
    return psd


def synthesize_system_noise(config: InterferometerConfig, n_samples: int, seed: int,
                            flatten_below: float) -> SampledTrace:
    """Realize the configured tap's total phase noise as a time series
    (`synthesize_colored_noise` of `system_phase_noise_psd`)."""
    return synthesize_colored_noise(
        lambda f: system_phase_noise_psd(config, f),
        n_samples, config.sample_rate, seed, flatten_below=flatten_below)


def voice_rms_phase(level_db: float, coupling: AcousticCoupling,
                    sensing_length: float) -> float:
    """RMS phase of a sine at the given dB SPL level on the sensing fiber."""
    amplitude = coupling.sensitivity * sensing_length \
        * spl_to_pressure(level_db, coupling.spl_reference)
    return float(amplitude / math.sqrt(2.0))


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


def _budget(thermal: float, laser: float, coupling: AcousticCoupling,
            sensing_length: float, snr_threshold: float) -> NoiseBudget:
    total = float(np.hypot(thermal, laser))
    with np.errstate(over="ignore"):
        limit = phase_rms_to_spl(snr_threshold * total, coupling, sensing_length)
    if not math.isfinite(limit):
        raise DomainError(
            f"the detection limit of {snr_threshold!r} x {total!r} rad RMS noise is "
            f"{limit!r} dB SPL, outside the float range")
    return NoiseBudget(thermal_rms=thermal, laser_rms=laser,
                       total_rms=total, detection_limit_db=limit)


def _sweep(name: str, values, budget_at) -> list[BudgetRow]:
    """One `BudgetRow` per value, from the `NoiseBudget` ``budget_at(value)``.

    An error at a value is raised again with its class, naming the value.
    """
    values = [float(v) for v in values]
    if not values:
        raise InputError(f"{name}s must be non-empty")
    rows = []
    for value in values:
        try:
            b = budget_at(value)
        except FiberTapError as exc:
            raise type(exc)(f"{name} {value!r}: {exc}") from None
        rows.append(BudgetRow(value, b.thermal_rms, b.laser_rms, b.total_rms,
                              b.detection_limit_db))
    return rows


def compute_noise_budget(config: InterferometerConfig, coupling: AcousticCoupling,
                         band: AudioBand, snr_threshold: float) -> NoiseBudget:
    """Band noise budget of a configured tap and its detection limit; the
    laser term is the full form, the PSD that `synthesize_system_noise` draws."""
    th = thermal_rms(config.detect_fiber, config.laser.wavelength, band)
    la = laser_rms(config.laser, config.delay_mismatch(), band, form="full")
    return _budget(th, la, coupling, config.sensing_length, snr_threshold)


def detection_limit_vs_length(lengths, config: InterferometerConfig,
                              coupling: AcousticCoupling, band: AudioBand,
                              snr_threshold: float) -> list[BudgetRow]:
    """Thermal-noise detection limit versus detecting-arm length.

    Each row is the `compute_noise_budget` of `config` with a detecting arm
    of that length and a balanced reference arm of twice it, so the laser
    column is zero. A length the tap rejects, one below its sensing fiber
    (0 included) or one whose reference 2L is past the float range, raises
    `ConfigurationError`.
    """
    def budget_at(length):
        tap = replace(config, detect_fiber=replace(config.detect_fiber, length=length),
                      reference_length=2.0 * length)
        return compute_noise_budget(tap, coupling, band, snr_threshold)
    return _sweep("length", lengths, budget_at)


def detection_limit_vs_mismatch(mismatches, config: InterferometerConfig,
                                coupling: AcousticCoupling, band: AudioBand,
                                snr_threshold: float,
                                include_thermal: bool = False) -> list[BudgetRow]:
    """Laser-noise detection limit of `config` versus arm length mismatch.

    Uses the small-delay closed form (linear in tau0, hence in mismatch).
    With ``include_thermal`` the configured detecting arm's thermal RMS is
    added in root-sum-square to the budget; by default the sweep isolates
    the laser term.
    """
    laser, n = config.laser, config.detect_fiber.refractive_index
    th = thermal_rms(config.detect_fiber, laser.wavelength, band) if include_thermal else 0.0

    def budget_at(mismatch):
        if mismatch < 0:
            raise InputError("must be >= 0")
        la = laser_rms(laser, mismatch_to_delay(mismatch, n), band, form="approx")
        return _budget(th, la, coupling, config.sensing_length, snr_threshold)
    return _sweep("mismatch", mismatches, budget_at)
