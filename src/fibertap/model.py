"""Forward optical model: sound pressure -> fiber phase -> heterodyne beat signal.

The sensing geometry is a reflective tap: a probe beam travels through the
detecting arm, is partially reflected at the flat connector end face and
beats against a frequency-shifted reference beam on the photodiode. With the
optical power normalized away, the sampled photocurrent is

    I(t) = (1 + alpha^2) + 2 alpha cos(2 pi f_if t + phi_voice(t) + phi_noise(t) + phi_c)

where ``alpha`` is the reflection amplitude (power reflectivity alpha^2) and
``phi_c`` lumps the static carrier terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import ConfigurationError, DomainError, InputError, NyquistError
from .trace import AUDIO, HETERODYNE, PHASE, SampledTrace

#: Exact SI values (m/s and J/K), equal to ``scipy.constants.c`` and ``.k``.
SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class LaserSpec:
    """Optical carrier and frequency-noise model of the probe laser.

    Parameters
    ----------
    wavelength : float
        Vacuum wavelength in meters.
    white_freq_psd : float
        One-sided white PSD of angular-frequency fluctuations, rad^2 s^-2 / Hz.
        A Lorentzian line of width ``dv`` has ``4 pi dv``
        (`calibrate.white_psd_from_linewidth`).
    flicker_coeff : float
        Flicker (1/f) coefficient of the angular-frequency PSD, rad^2 s^-2,
        so the full frequency-noise PSD is ``white_freq_psd + flicker_coeff / f``.
    """

    wavelength: float
    white_freq_psd: float
    flicker_coeff: float

    def __post_init__(self):
        if not 0 < self.wavelength < math.inf:
            raise ConfigurationError(f"laser.wavelength must be > 0, got {self.wavelength}")
        if not 0 <= self.white_freq_psd < math.inf:
            raise ConfigurationError(f"laser.white_freq_psd must be >= 0, got {self.white_freq_psd}")
        if not 0 <= self.flicker_coeff < math.inf:
            raise ConfigurationError(f"laser.flicker_coeff must be >= 0, got {self.flicker_coeff}")


@dataclass(frozen=True)
class FiberSpec:
    """Thermal-noise material parameters of one fiber arm.

    ``bulk_modulus_area_product`` is the product K*A of bulk modulus and
    cross-sectional area in newtons; the two never appear separately in the
    thermal phase-noise density, and the product is what a cable re-coating
    leaves unchanged.
    """

    length: float
    refractive_index: float
    bulk_modulus_area_product: float
    loss_angle: float
    temperature: float

    def __post_init__(self):
        if not 0 <= self.length < math.inf:
            raise ConfigurationError(
                f"fiber.length must be finite and >= 0, got {self.length}")
        if not 1 < self.refractive_index < math.inf:
            raise ConfigurationError(
                f"fiber.refractive_index must be > 1, got {self.refractive_index}")
        if not 0 < self.bulk_modulus_area_product < math.inf:
            raise ConfigurationError(
                f"fiber.bulk_modulus_area_product must be > 0, got {self.bulk_modulus_area_product}")
        if not 0 < self.loss_angle < math.inf:
            raise ConfigurationError(f"fiber.loss_angle must be > 0, got {self.loss_angle}")
        if not 0 < self.temperature < math.inf:
            raise ConfigurationError(f"fiber.temperature must be > 0, got {self.temperature}")


@dataclass(frozen=True)
class AcousticCoupling:
    """Linear sound-to-phase coupling of the sensing fiber.

    ``sensitivity`` is phase per unit pressure per meter of sensing fiber,
    rad / (Pa m). The value shipped in the config file is calibrated against
    the thermal-noise detection anchor. ``spl_reference`` is the 0 dB SPL
    pressure in Pa.
    """

    sensitivity: float
    spl_reference: float

    def __post_init__(self):
        if not 0 < self.sensitivity < math.inf:
            raise ConfigurationError(f"coupling.sensitivity must be > 0, got {self.sensitivity}")
        if not 0 < self.spl_reference < math.inf:
            raise ConfigurationError(f"coupling.spl_reference must be > 0, got {self.spl_reference}")


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry and sampling parameters of the heterodyne tap.

    The reference arm is single-pass while the detecting arm is traversed
    twice (out and back from the reflective end face), so a balanced
    interferometer has ``reference_length = 2 x detecting length``.

    The 80 MHz AOM beat cannot be represented directly at audio-friendly
    sample rates, so the sampled record carries the beat at a configurable
    ``intermediate_frequency`` instead; the demodulation mathematics is
    unchanged by the carrier placement.
    """

    laser: LaserSpec
    detect_fiber: FiberSpec
    reference_length: float
    sensing_length: float
    reflection_amplitude: float
    intermediate_frequency: float
    sample_rate: float
    initial_phase: float

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ConfigurationError(
                f"interferometer.sample_rate must be > 0, got {self.sample_rate}")
        if not 0 < self.intermediate_frequency < self.sample_rate / 2:
            raise NyquistError(
                "interferometer.intermediate_frequency must lie in (0, sample_rate/2): "
                f"got intermediate_frequency={self.intermediate_frequency}, "
                f"sample_rate={self.sample_rate}")
        if not 0 <= self.reflection_amplitude <= 1:
            raise ConfigurationError(
                "interferometer.reflection_amplitude must be in [0, 1], "
                f"got {self.reflection_amplitude}")
        if not 0 <= self.reference_length < math.inf:
            raise ConfigurationError("interferometer.reference_length must be finite "
                                     f"and >= 0, got {self.reference_length}")
        if not self.sensing_length > 0:
            raise ConfigurationError(
                f"interferometer.sensing_length must be > 0, got {self.sensing_length}")
        if not math.isfinite(self.initial_phase):
            raise ConfigurationError(
                f"interferometer.initial_phase must be finite, got {self.initial_phase}")
        if self.sensing_length > self.detect_fiber.length:
            raise ConfigurationError(
                "interferometer.sensing_length cannot exceed the detecting arm length: "
                f"{self.sensing_length} > {self.detect_fiber.length}")

    def arm_mismatch(self) -> float:
        """Unbalanced optical length |reference - 2 x detect| in meters."""
        return abs(self.reference_length - 2.0 * self.detect_fiber.length)

    def delay_mismatch(self) -> float:
        """Differential propagation delay tau0 of the arm mismatch, seconds."""
        return mismatch_to_delay(self.arm_mismatch(), self.detect_fiber.refractive_index)


def mismatch_to_delay(mismatch: float, refractive_index: float) -> float:
    """Arm length mismatch (m) to differential delay tau0 = n * mismatch / c."""
    if mismatch < 0:
        raise DomainError(f"mismatch must be >= 0, got {mismatch}")
    return refractive_index * mismatch / SPEED_OF_LIGHT


def spl_to_pressure(level_db, spl_reference):
    """Convert a dB SPL level to pressure, ``spl_reference * 10^(level/20)``;
    inf for a level whose pressure is past the float range."""
    try:
        return spl_reference * 10.0 ** (level_db / 20.0)
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        return math.inf


def pressure_to_spl(pressure, spl_reference):
    """Inverse of `spl_to_pressure`; returns -inf for zero pressure."""
    p = np.asarray(pressure, dtype=float)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(p / spl_reference)


def voice_to_phase(audio: SampledTrace, coupling: AcousticCoupling,
                   sensing_length: float) -> SampledTrace:
    """Map a pressure trace to the optical phase it induces on the sensing fiber.

    The coupling is linear in both pressure and fiber length:
    ``phase[i] = sensitivity * sensing_length * audio[i]``.

    Parameters
    ----------
    audio : SampledTrace
        Pressure trace in Pa, kind ``audio_pressure``.
    coupling : AcousticCoupling
        Sound-to-phase coupling constants.
    sensing_length : float
        Length of fiber exposed to the sound field, meters, >= 0.

    Returns
    -------
    SampledTrace
        Phase trace in rad at the same sample rate and length.
    """
    if audio.kind != AUDIO:
        raise InputError(f"voice_to_phase expects an {AUDIO!r} trace, got {audio.kind!r}")
    if sensing_length < 0:
        raise InputError(f"sensing_length must be >= 0, got {sensing_length}")
    phase = coupling.sensitivity * sensing_length * audio.samples
    return SampledTrace._adopt(audio.sample_rate, phase, PHASE)


def synthesize_heterodyne(config: InterferometerConfig, voice_phase: SampledTrace,
                          noise_phase: SampledTrace | None = None) -> SampledTrace:
    """Synthesize the sampled photodiode beat signal.

    Parameters
    ----------
    config : InterferometerConfig
        Tap geometry; sets the beat frequency, reflection amplitude,
        sample rate and static phase.
    voice_phase : SampledTrace
        Sound-induced phase in rad (kind ``phase``) at the config rate; it
        sets the record length. A quiet room is a zero trace.
    noise_phase : SampledTrace, optional
        Phase noise in rad (kind ``phase``) of the same rate and length,
        such as `noise.synthesize_system_noise` draws for `config`; it is
        added after the voice.

    Returns
    -------
    SampledTrace
        Heterodyne intensity trace, kind ``heterodyne``.
    """
    fs = config.sample_rate
    n = voice_phase.n_samples
    for name, trace in (("voice_phase", voice_phase), ("noise_phase", noise_phase)):
        if trace is None:
            continue
        if trace.kind != PHASE:
            raise InputError(f"{name} must be a {PHASE!r} trace, got {trace.kind!r}")
        if trace.sample_rate != fs:
            raise InputError(
                f"{name} sample rate {trace.sample_rate} differs from config rate {fs}")
        if trace.n_samples != n:
            raise InputError(f"{name} has {trace.n_samples} samples, voice_phase {n}")

    # one buffer, in the order of 2 pi f_if t + phi_0 + voice + noise, then
    # (1 + alpha^2) + 2 alpha cos(phase)
    x = np.arange(n, dtype=float)
    x /= fs
    x *= 2.0 * math.pi * config.intermediate_frequency
    x += config.initial_phase
    x += voice_phase.samples
    if noise_phase is not None:
        x += noise_phase.samples

    alpha = config.reflection_amplitude
    np.cos(x, out=x)
    x *= 2.0 * alpha
    x += 1.0 + alpha ** 2
    return SampledTrace._adopt(fs, x, HETERODYNE)
