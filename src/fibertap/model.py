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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, NyquistError
from .trace import AUDIO, HETERODYNE, PHASE, SampledTrace

#: Exact SI values (m/s and J/K), equal to ``scipy.constants.c`` and ``.k``.
SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23

#: Reference pressure for dB SPL (20 micropascal).
SPL_REFERENCE_PA = 2e-5

#: Optical carrier power is normalized so E0^2 = 1.
CARRIER_POWER = 1.0


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
    white_freq_psd: float = 0.0
    flicker_coeff: float = 0.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ConfigurationError(f"laser.wavelength must be > 0, got {self.wavelength}")
        if self.white_freq_psd < 0:
            raise ConfigurationError(f"laser.white_freq_psd must be >= 0, got {self.white_freq_psd}")
        if self.flicker_coeff < 0:
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
    refractive_index: float = 1.468
    bulk_modulus_area_product: float = 454.0
    loss_angle: float = 0.01
    temperature: float = 293.15

    def __post_init__(self):
        if self.length < 0:
            raise ConfigurationError(f"fiber.length must be >= 0, got {self.length}")
        if self.refractive_index <= 1:
            raise ConfigurationError(
                f"fiber.refractive_index must be > 1, got {self.refractive_index}")
        if self.bulk_modulus_area_product <= 0:
            raise ConfigurationError(
                f"fiber.bulk_modulus_area_product must be > 0, got {self.bulk_modulus_area_product}")
        if self.loss_angle <= 0:
            raise ConfigurationError(f"fiber.loss_angle must be > 0, got {self.loss_angle}")
        if self.temperature <= 0:
            raise ConfigurationError(f"fiber.temperature must be > 0, got {self.temperature}")


@dataclass(frozen=True)
class AcousticCoupling:
    """Linear sound-to-phase coupling of the sensing fiber.

    ``sensitivity`` is phase per unit pressure per meter of sensing fiber,
    rad / (Pa m). The default value shipped in the config file is calibrated
    against the thermal-noise detection anchor rather than hard-coded here.
    """

    sensitivity: float
    spl_reference: float = SPL_REFERENCE_PA

    def __post_init__(self):
        if self.sensitivity <= 0:
            raise ConfigurationError(f"coupling.sensitivity must be > 0, got {self.sensitivity}")
        if self.spl_reference <= 0:
            raise ConfigurationError(f"coupling.spl_reference must be > 0, got {self.spl_reference}")


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry and sampling parameters of the heterodyne tap.

    The reference arm is single-pass while the detecting arm is traversed
    twice (out and back from the reflective end face), so a balanced
    interferometer has ``reference length = 2 x detecting length``.

    The 80 MHz AOM beat cannot be represented directly at audio-friendly
    sample rates, so the sampled record carries the beat at a configurable
    ``intermediate_frequency`` instead; the demodulation mathematics is
    unchanged by the carrier placement.
    """

    laser: LaserSpec
    detect_fiber: FiberSpec
    reference_fiber: FiberSpec
    sensing_length: float = 3.0
    reflection_amplitude: float = 0.2
    intermediate_frequency: float = 25e3
    sample_rate: float = 400e3
    initial_phase: float = 0.0

    def __post_init__(self):
        if self.sample_rate <= 0:
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
        if self.sensing_length < 0:
            raise ConfigurationError(
                f"interferometer.sensing_length must be >= 0, got {self.sensing_length}")
        if self.sensing_length > self.detect_fiber.length:
            raise ConfigurationError(
                "interferometer.sensing_length cannot exceed the detecting arm length: "
                f"{self.sensing_length} > {self.detect_fiber.length}")

    def arm_mismatch(self) -> float:
        """Unbalanced optical length |reference - 2 x detect| in meters."""
        return abs(self.reference_fiber.length - 2.0 * self.detect_fiber.length)

    def delay_mismatch(self) -> float:
        """Differential propagation delay tau0 = n * mismatch / c, seconds."""
        return self.detect_fiber.refractive_index * self.arm_mismatch() / SPEED_OF_LIGHT


def spl_to_pressure(level_db, spl_reference=SPL_REFERENCE_PA):
    """Convert a dB SPL level to pressure, ``spl_reference * 10^(level/20)``."""
    return spl_reference * 10.0 ** (np.asarray(level_db, dtype=float) / 20.0)


def pressure_to_spl(pressure, spl_reference=SPL_REFERENCE_PA):
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
    return SampledTrace(audio.sample_rate, phase, PHASE)


def synthesize_heterodyne(config: InterferometerConfig,
                          voice_phase: SampledTrace | None = None,
                          noise_phase: SampledTrace | None = None,
                          duration: float | None = None,
                          noise_seed: int | None = None,
                          flatten_below: float | None = None) -> SampledTrace:
    """Synthesize the sampled photodiode beat signal.

    Parameters
    ----------
    config : InterferometerConfig
        Tap geometry; sets the beat frequency, reflection amplitude,
        sample rate and static phase.
    voice_phase : SampledTrace, optional
        Sound-induced phase in rad (kind ``phase``). Omit for a quiet room.
    noise_phase : SampledTrace, optional
        Precomputed system phase noise. Mutually exclusive with `noise_seed`.
    duration : float, optional
        Trace length in seconds; required when neither phase trace is given,
        otherwise it must be consistent with the trace lengths.
    noise_seed : int, optional
        When given (and `noise_phase` is not), thermal and laser phase noise
        are synthesized internally from `config`; the result is deterministic
        in the seed.
    flatten_below : float, optional
        Frequency (Hz) below which the synthesized noise PSD is held flat;
        ``None`` uses ``noise.DEFAULT_FLATTEN_HZ``. Applies with `noise_seed`.

    Returns
    -------
    SampledTrace
        Heterodyne intensity trace, kind ``heterodyne``.
    """
    fs = config.sample_rate
    if noise_phase is not None and noise_seed is not None:
        raise InputError("pass either noise_phase or noise_seed, not both")

    n = None
    for tr, name in ((voice_phase, "voice_phase"), (noise_phase, "noise_phase")):
        if tr is None:
            continue
        if tr.kind != PHASE:
            raise InputError(f"{name} must be a {PHASE!r} trace, got {tr.kind!r}")
        if tr.sample_rate != fs:
            raise InputError(
                f"{name} sample rate {tr.sample_rate} differs from config rate {fs}")
        if n is not None and tr.n_samples != n:
            raise InputError("voice_phase and noise_phase lengths differ")
        n = tr.n_samples
    if n is None:
        if duration is None:
            raise InputError("duration is required when no phase trace is given")
        n = int(round(duration * fs))
        if n < 1:
            raise InputError(f"duration {duration} s is shorter than one sample")
    elif duration is not None and int(round(duration * fs)) != n:
        raise InputError(
            f"duration {duration} s is inconsistent with trace length {n} at {fs} S/s")

    if noise_seed is not None:
        from .noise import DEFAULT_FLATTEN_HZ, synthesize_system_noise
        noise_phase = synthesize_system_noise(
            config, n, noise_seed,
            flatten_below=DEFAULT_FLATTEN_HZ if flatten_below is None else flatten_below)

    t = np.arange(n) / fs
    phase = 2.0 * np.pi * config.intermediate_frequency * t + config.initial_phase
    if voice_phase is not None:
        phase = phase + voice_phase.samples
    if noise_phase is not None:
        phase = phase + noise_phase.samples

    alpha = config.reflection_amplitude
    intensity = (1.0 + alpha ** 2) * CARRIER_POWER \
        + 2.0 * alpha * CARRIER_POWER * np.cos(phase)
    return SampledTrace(fs, intensity, HETERODYNE)
