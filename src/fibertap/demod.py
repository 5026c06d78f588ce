"""Phase recovery from the sampled beat: IQ demodulation, unwrapping, filtering.

Mixing the real heterodyne record with ``exp(-j 2 pi f_beat t)`` and low-pass
filtering leaves a complex baseband whose argument is the instantaneous
interferometer phase and whose magnitude tracks the beat amplitude. The
low-pass is a linear-phase Kaiser FIR applied with a centered kernel, so the
recovered phase has no group delay; the audio-band high-pass that strips
slow environmental drift is a forward-backward Butterworth for the same
reason. Mixing, filtering and unwrapping go block by block (overlap-save for
the FIR), so their working set beyond the record and its results is a few
blocks, not whole-record spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, InputError, NyquistError
from .noise import AudioBand
from .trace import BASEBAND, HETERODYNE, PHASE, SampledTrace

#: Stopband attenuation of the image-reject FIR. Sized so the DC photocurrent
#: term, mixed down to -f_beat, perturbs the recovered phase by < 1e-6 rad
#: even against the weakest supported beat amplitude.
IQ_STOPBAND_DB = 140.0

#: Samples per block of `iq_demodulate` (its overlap-save FFT length) and of
#: `unwrap_phase`. The FFT grows to the next power of two of at least twice
#: the FIR length when the taps are longer, so a block always yields more new
#: output than it overlaps.
IQ_BLOCK = 2 ** 15

#: Stopband attenuation of the decimation anti-alias FIR.
DECIMATE_STOPBAND_DB = 80.0


@dataclass(frozen=True)
class DemodConfig:
    """Parameters of `demod`: IQ demodulation, high-pass and audio rate.

    ``beat_frequency`` must equal the carrier actually present in the record
    (`load_config` takes it from ``interferometer.intermediate_frequency_hz``).
    ``lowpass_cutoff`` defaults to half the beat frequency, the widest choice
    that still rejects the mixed DC term and the double-frequency image.
    `edge_guard` checks the parameters against a record's sample rate.
    """

    beat_frequency: float
    lowpass_cutoff: float | None = None
    highpass_cutoff: float = 500.0
    filter_order: int = 4
    audio_rate: float = 40000.0

    def __post_init__(self):
        if not 0 < self.beat_frequency < np.inf:
            raise ConfigurationError(
                f"demod.beat_frequency must be finite and > 0, got {self.beat_frequency}")
        if self.lowpass_cutoff is not None and not 0 < self.lowpass_cutoff < self.beat_frequency:
            raise ConfigurationError(
                "demod.lowpass_cutoff must lie in (0, beat_frequency): "
                f"got {self.lowpass_cutoff} with beat {self.beat_frequency}")
        if not 0 < self.highpass_cutoff < np.inf:
            raise ConfigurationError(
                f"demod.highpass_cutoff must be finite and > 0, got {self.highpass_cutoff}")
        if self.filter_order < 1:
            raise ConfigurationError(
                f"demod.filter_order must be >= 1, got {self.filter_order}")
        if not np.isfinite(self.audio_rate):
            raise ConfigurationError(f"demod.audio_rate must be finite, got {self.audio_rate}")

    def resolved_cutoff(self) -> float:
        return self.lowpass_cutoff if self.lowpass_cutoff is not None \
            else self.beat_frequency / 2.0

    def validate_rate(self, sample_rate: float):
        if not 0 < self.beat_frequency < sample_rate / 2:
            raise NyquistError(
                "demod.beat_frequency must lie in (0, sample_rate/2): "
                f"got {self.beat_frequency} at {sample_rate} S/s")


def _kaiser_lowpass(pass_edge, stop_edge, atten_db, fs):
    """Odd-length linear-phase FIR with -6 dB point mid-transition."""
    from scipy import signal
    width = stop_edge - pass_edge
    numtaps, beta = signal.kaiserord(atten_db, width / (0.5 * fs))
    numtaps |= 1
    return signal.firwin(numtaps, (pass_edge + stop_edge) / 2.0,
                         window=("kaiser", beta), fs=fs)


def _iq_taps(cfg: DemodConfig, fs: float):
    cutoff = cfg.resolved_cutoff()
    # stop by the beat frequency so the mixed-down DC term is fully attenuated
    stop_edge = min(2.0 * cutoff, cfg.beat_frequency)
    return _kaiser_lowpass(cutoff, stop_edge, IQ_STOPBAND_DB, fs)


def iq_transient_samples(cfg: DemodConfig, sample_rate: float) -> int:
    """Edge samples of `iq_demodulate` output contaminated by the FIR ramp."""
    return _iq_taps(cfg, sample_rate).size


def edge_guard(cfg: DemodConfig, sample_rate: float, band: AudioBand) -> tuple[int, int]:
    """Check `cfg` against a record at `sample_rate`; size the edge guard.

    Runs every rule that ties the parameters to the record rate (beat and
    high-pass cutoff below Nyquist; audio rate rational and clear of `band`,
    as `decimate_to_audio` needs), so a record is rejected before any of it
    is demodulated. Returns ``(transient, guard)``: the FIR transient samples
    at each edge of the `iq_demodulate` output, and that count rounded up to
    a whole decimation step, which keeps the trimmed audio on the grid of
    the whole record.
    """
    cfg.validate_rate(sample_rate)
    if cfg.highpass_cutoff >= sample_rate / 2:
        raise ConfigurationError(
            "demod.highpass_cutoff must lie below sample_rate/2: "
            f"got {cfg.highpass_cutoff} at {sample_rate} S/s")
    up, down = _audio_ratio(sample_rate, cfg.audio_rate, band)
    transient = iq_transient_samples(cfg, sample_rate)
    step = down if up == 1 else 1
    return transient, -(-transient // step) * step


def iq_demodulate(het: SampledTrace, cfg: DemodConfig) -> SampledTrace:
    """Mix the beat record to baseband and reject the images.

    Parameters
    ----------
    het : SampledTrace
        Heterodyne intensity record, kind ``heterodyne``.
    cfg : DemodConfig
        Beat frequency and low-pass parameters; the beat must satisfy
        Nyquist at the record's sample rate.

    Returns
    -------
    SampledTrace
        Complex baseband, kind ``baseband``. ``abs`` approximates the beat
        amplitude (alpha for unit carrier power), ``angle`` carries the
        interferometer phase. The first and last filter length of samples
        are transient.
    """
    if het.kind != HETERODYNE:
        raise InputError(f"iq_demodulate expects a {HETERODYNE!r} trace, got {het.kind!r}")
    cfg.validate_rate(het.sample_rate)
    from scipy import fft
    fs = het.sample_rate
    taps = _iq_taps(cfg, fs)
    # overlap-save over the record zero-extended by half the taps on each
    # side, which gives the centered ("same") convolution, edges included
    half = taps.size // 2
    nfft = max(IQ_BLOCK, 1 << (2 * taps.size - 1).bit_length())
    step = nfft - taps.size + 1
    spectrum = fft.fft(taps, nfft)
    x = het.samples
    baseband = np.empty(x.size, dtype=np.complex128)
    for start in range(0, x.size, step):
        lo, hi = max(start - half, 0), min(start - half + nfft, x.size)
        t = np.arange(lo, hi) / fs
        block = np.zeros(nfft, dtype=np.complex128)
        block[lo - start + half:hi - start + half] = \
            x[lo:hi] * np.exp(-2j * np.pi * cfg.beat_frequency * t)
        out = fft.ifft(fft.fft(block, overwrite_x=True) * spectrum, overwrite_x=True)
        n = min(step, x.size - start)
        baseband[start:start + n] = out[taps.size - 1:taps.size - 1 + n]
    return SampledTrace(fs, baseband, BASEBAND)


def unwrap_phase(baseband: SampledTrace) -> SampledTrace:
    """Continuous phase of a complex baseband trace.

    Consecutive differences are brought into (-pi, pi] by adding multiples
    of 2 pi; valid while the true sample-to-sample phase step stays below pi,
    which audio-band modulation at the native oversampling guarantees. The
    record goes block by block, each block continuing from the previous
    one's last wrapped phase and running correction, so the result is
    `np.unwrap` over the whole record, bit for bit.
    """
    if baseband.kind != BASEBAND:
        raise InputError(f"unwrap_phase expects a {BASEBAND!r} trace, got {baseband.kind!r}")
    z = baseband.samples
    phase = np.empty(z.size)
    for start in range(0, z.size, IQ_BLOCK):
        block = np.angle(z[start:start + IQ_BLOCK])
        if start == 0:
            last, correction = block[0], 0.0
        # np.unwrap's rule: a step of pi or more in size is replaced by its
        # wrap into [-pi, pi), except that +pi stays +pi
        step = np.diff(block, prepend=last)
        wrapped = np.mod(step + np.pi, 2 * np.pi) - np.pi
        wrapped[(wrapped == -np.pi) & (step > 0)] = np.pi
        fix = np.where(np.abs(step) < np.pi, 0.0, wrapped - step)
        fix[0] += correction
        np.cumsum(fix, out=fix)
        phase[start:start + block.size] = block + fix
        last, correction = block[-1], fix[-1]
    return SampledTrace(baseband.sample_rate, phase, PHASE)


def highpass(trace: SampledTrace, cutoff: float, order: int = 4) -> SampledTrace:
    """Zero-phase Butterworth high-pass (forward-backward, -6 dB at cutoff)."""
    if not 0 < cutoff < trace.sample_rate / 2:
        raise ConfigurationError(
            f"highpass cutoff must lie in (0, fs/2), got {cutoff} at {trace.sample_rate} S/s")
    if order < 1 or int(order) != order:
        raise ConfigurationError(f"highpass order must be a positive integer, got {order}")
    from scipy import signal
    sos = signal.butter(int(order), cutoff, btype="highpass",
                        fs=trace.sample_rate, output="sos")
    return trace.with_samples(signal.sosfiltfilt(sos, trace.samples))


def resample_ratio(rate_in: float, rate_out: float) -> tuple[int, int]:
    """Polyphase factors (up, down) that take `rate_in` to `rate_out`.

    The ratio is the fraction nearest ``rate_out / rate_in`` with a
    denominator of at most 10000, and it must reproduce `rate_out` within
    1e-9 relative: 400 kS/s reaches 40, 32 and 44.1 kHz (1/10, 2/25,
    441/4000), while a rate needing a larger denominator is rejected rather
    than resampled approximately.
    """
    if not np.isfinite(rate_out) or rate_out <= 0:
        raise ConfigurationError(f"resampling rate must be finite and > 0, got {rate_out}")
    frac = Fraction(rate_out / rate_in).limit_denominator(10000)
    up, down = frac.numerator, frac.denominator
    if abs(rate_in * up / down - rate_out) > 1e-9 * rate_out:
        raise ConfigurationError(
            f"rate {rate_out} is not rationally related to {rate_in} "
            "(no up/down ratio with denominator <= 10000)")
    return up, down


def _audio_ratio(rate_in: float, audio_rate: float, band: AudioBand) -> tuple[int, int]:
    """`resample_ratio` to an audio rate, which must carry `band` if it differs."""
    up, down = resample_ratio(rate_in, audio_rate)
    if audio_rate != rate_in and audio_rate / 2.0 <= band.f_high:
        raise ConfigurationError(
            f"audio rate {audio_rate} cannot carry the audio band "
            f"(need audio rate/2 > {band.f_high})")
    return up, down


def decimate_to_audio(trace: SampledTrace, target_rate: float,
                      band: AudioBand | None = None) -> SampledTrace:
    """Anti-alias filter and resample a phase trace to an audio rate.

    The target rate must relate rationally to the input rate (see
    `resample_ratio`) and its Nyquist frequency must clear the audio band.
    The anti-alias FIR passes the band edge and stops at the new Nyquist
    frequency, so in-band content survives within a small fraction of a dB
    while everything that would alias is pushed below the design stopband.
    """
    band = band or AudioBand()
    fs = trace.sample_rate
    if target_rate == fs:
        return trace
    up, down = _audio_ratio(fs, target_rate, band)
    taps = _kaiser_lowpass(band.f_high, target_rate / 2.0, DECIMATE_STOPBAND_DB, fs * up)
    from scipy import signal
    out = signal.resample_poly(trace.samples, up, down, window=taps)
    return SampledTrace(target_rate, out, trace.kind)
