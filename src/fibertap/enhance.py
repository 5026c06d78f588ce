"""Spectral-subtraction speech enhancement and segmental SNR metric.

The background noise is treated as stationary, so its power spectrum is
estimated by averaging windowed periodograms over silent frames and removed
from every frame with Berouti-style oversubtraction and a spectral floor.
Analysis uses a periodic Hann window, at 50 % overlap by default;
synthesis is plain overlap-add normalized by the accumulated window, which
reconstructs an unmodified signal exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .errors import ConfigurationError, EstimationError, InputError
from .trace import SampledTrace

SEGSNR_FLOOR_DB = -10.0
SEGSNR_CEIL_DB = 35.0

#: Smallest accumulated analysis window that `resolve` accepts. Overlap-add
#: divides each output sample by the sum of the windows that cover it, so a
#: thin sum amplifies the frames' rounding: at 478-sample frames and hop 477
#: it falls to 4.3e-5. With every sum at or above this floor, a zero noise
#: spectrum reproduces the input within 4.1e-14 of its norm (every even
#: frame up to 512 samples at every hop the floor admits).
WINDOW_SUM_FLOOR = 1e-3


@dataclass(frozen=True)
class SpectralSubtractParams:
    """Frame and subtraction parameters.

    `resolve` sets the frame length (made even) and hop, in samples, at the
    trace rate from ``frame_ms`` and ``overlap`` (the fraction of a frame
    shared by neighbouring frames). Analysis uses a periodic Hann window,
    which is 0 at each frame start, so the frames must overlap enough that
    the windows over each sample sum to `WINDOW_SUM_FLOOR` or more: an
    overlap of about 1.5 % or more. ``silence_threshold_db`` is the offset
    below the median frame energy that still counts as silent: the default
    -10 marks every frame quieter than 10 dB above the median, so stationary
    noise is silent throughout while speech bursts stand out.
    """

    frame_ms: float
    overlap: float
    oversubtraction: float
    spectral_floor: float
    silence_threshold_db: float

    def __post_init__(self):
        if not 0 < self.frame_ms < math.inf:
            raise ConfigurationError(f"frame_ms must be > 0, got {self.frame_ms}")
        if not 0 <= self.overlap < 1:
            raise ConfigurationError(f"overlap must be in [0, 1), got {self.overlap}")
        if not 1 <= self.oversubtraction < math.inf:
            raise ConfigurationError(
                f"oversubtraction must be >= 1, got {self.oversubtraction}")
        if not 0 <= self.spectral_floor < 1:
            raise ConfigurationError(
                f"spectral_floor must be in [0, 1), got {self.spectral_floor}")
        if not math.isfinite(self.silence_threshold_db):
            raise ConfigurationError(
                f"silence_threshold_db must be finite, got {self.silence_threshold_db}")

    def framing(self, sample_rate):
        """(frame_length, hop) in samples at `sample_rate`, as `resolve` gives
        them, without building the window. A frame past the float range
        raises `ConfigurationError` naming ``enhance.frame_ms``."""
        length = self.frame_ms * 1e-3 * sample_rate
        if length == math.inf:
            raise ConfigurationError(f"enhance.frame_ms {self.frame_ms!r} gives a frame of "
                                     f"inf samples at {sample_rate!r} S/s")
        frame = max(2, int(round(length)))
        frame += frame % 2
        return frame, max(1, int(round(frame * (1.0 - self.overlap))))

    def resolve(self, sample_rate):
        """Concrete (frame_length, hop, window array) for a given rate."""
        frame, hop = self.framing(sample_rate)
        # periodic Hann, as scipy's get_window("hann", frame) computes it
        fac = np.linspace(-np.pi, np.pi, frame + 1)
        win = (0.5 + 0.5 * np.cos(fac))[:-1]
        # the windows over each sample: one per frame, every hop samples
        low = np.concatenate([win, np.zeros(-frame % hop)]).reshape(-1, hop).sum(axis=0).min()
        if low < WINDOW_SUM_FLOOR:
            raise ConfigurationError(
                f"enhance.overlap {self.overlap} gives hop {hop} for frame length {frame}, "
                f"where the Hann windows over a sample sum to {low:.3g}, below "
                f"{WINDOW_SUM_FLOOR}: the frames must overlap more")
        return frame, hop, win


def frame_count(n, frame, hop):
    """Frames at offsets m*hop over `n` samples, the last one zero-padded."""
    if n < frame:
        raise InputError(f"trace of {n} samples is shorter than one frame ({frame})")
    return 1 + -(-(n - frame) // hop)


def _frames(x, frame, hop):
    """Read-only frame matrix at offsets m*hop, last frame zero-padded."""
    m = frame_count(x.size, frame, hop)
    padded = np.concatenate([x, np.zeros((m - 1) * hop + frame - x.size)])
    return np.lib.stride_tricks.sliding_window_view(padded, frame)[::hop]


def _overlap_add(frames, hop):
    """Sum the rows of `frames` placed at offsets m*hop.

    One strided add per hop-wide column block; the blocks go from last to
    first so every output sample sums its frames in frame order.
    """
    m, frame = frames.shape
    out = np.zeros((m - 1 + -(-frame // hop)) * hop)
    for k in reversed(range(0, frame, hop)):
        w = min(hop, frame - k)
        out[k:k + m * hop].reshape(m, hop)[:, :w] += frames[:, k:k + w]
    return out


def detect_silent_frames(trace: SampledTrace, params: SpectralSubtractParams) -> np.ndarray:
    """Indices of frames whose energy is below the silence threshold.

    Returns a possibly empty index array; emptiness is the caller's signal
    to fall back to an external noise reference.
    """
    frame, hop, _ = params.resolve(trace.sample_rate)
    energies = np.sum(_frames(trace.samples, frame, hop) ** 2, axis=1)
    median = float(np.median(energies))
    try:
        cutoff = median * 10.0 ** (-params.silence_threshold_db / 10.0)
    except OverflowError:  # the factor passes the float range, and so does any cutoff over 0
        cutoff = math.inf if median else 0.0
    return np.where(energies <= cutoff)[0]


def estimate_noise_spectrum(trace: SampledTrace, silent_frames,
                            params: SpectralSubtractParams) -> np.ndarray:
    """Average magnitude-squared spectrum over the given silent frames."""
    silent_frames = np.asarray(silent_frames, dtype=int)
    if silent_frames.size == 0:
        raise EstimationError(
            "no silent frames to estimate noise from; supply a noise reference")
    frame, hop, win = params.resolve(trace.sample_rate)
    frames = _frames(trace.samples, frame, hop)
    if np.any(silent_frames < 0) or np.any(silent_frames >= frames.shape[0]):
        raise InputError("silent frame index out of range")
    spectra = np.abs(np.fft.rfft(frames[silent_frames] * win, axis=1)) ** 2
    return np.mean(spectra, axis=0)


def subtract_power_spectrum(power, noise_power, params: SpectralSubtractParams) -> np.ndarray:
    """Oversubtract the noise power per bin, clamped to the spectral floor.

    ``max(P - beta * N, floor * P)``: never amplifies a bin (beta >= 1,
    floor < 1) and never drops a bin below ``floor * P``.
    """
    power = np.asarray(power, dtype=float)
    noise_power = np.asarray(noise_power, dtype=float)
    if power.shape != noise_power.shape:
        raise InputError(
            f"spectrum shapes differ: {power.shape} vs {noise_power.shape}")
    with np.errstate(over="ignore"):  # a product past the float range leaves the floor
        return np.maximum(power - params.oversubtraction * noise_power,
                          params.spectral_floor * power)


def spectral_subtract(noisy: SampledTrace, noise_spectrum,
                      params: SpectralSubtractParams) -> SampledTrace:
    """Remove a stationary noise spectrum from a trace frame by frame.

    Each windowed frame keeps its phase while its power spectrum is reduced
    by `subtract_power_spectrum`; frames are overlap-added and normalized by
    the accumulated window so the output has the input's exact length and a
    zero noise spectrum reproduces the input to rounding.
    """
    frame, hop, win = params.resolve(noisy.sample_rate)
    noise_spectrum = np.asarray(noise_spectrum, dtype=float)
    n_bins = frame // 2 + 1
    if noise_spectrum.shape != (n_bins,):
        raise InputError(
            f"noise spectrum must have {n_bins} bins for frame_length {frame}, "
            f"got shape {noise_spectrum.shape}")
    x = noisy.samples
    n = x.size
    frame_count(n, frame, hop)  # rejects a trace shorter than one frame

    # whole hops of zeros in front, enough that every frame covering the
    # first sample starts there, give the first samples their full window sum
    lead = -(-(frame - hop) // hop) * hop
    xp = np.concatenate([np.zeros(lead), x, np.zeros(frame)])
    frames = _frames(xp, frame, hop)
    spec = np.fft.rfft(frames * win, axis=1)
    power = np.abs(spec) ** 2
    out_power = subtract_power_spectrum(
        power, np.broadcast_to(noise_spectrum, power.shape), params)
    gain = np.sqrt(np.divide(out_power, power,
                             out=np.zeros_like(power), where=power > 0))
    out = _overlap_add(np.fft.irfft(spec * gain, n=frame, axis=1), hop)
    wsum = _overlap_add(np.broadcast_to(win, frames.shape), hop)
    y = np.divide(out, wsum, out=np.zeros_like(out), where=wsum > 1e-12)
    return SampledTrace._adopt(noisy.sample_rate, y[lead:lead + n], noisy.kind)


def segmental_snr(processed: SampledTrace, reference: SampledTrace,
                  frame_length: int) -> float:
    """Frame-averaged SNR of `processed` against `reference`, in dB.

    Non-overlapping frames of `frame_length` samples; each frame's
    ``10 log10(sum ref^2 / sum (ref - processed)^2)`` is clamped to
    [-10, 35] dB before averaging. Zero-error frames clamp high, frames with
    a silent reference clamp low.
    """
    if processed.n_samples != reference.n_samples:
        raise InputError(
            f"length mismatch: {processed.n_samples} vs {reference.n_samples}")
    if processed.sample_rate != reference.sample_rate:
        raise InputError(
            f"sample rate mismatch: {processed.sample_rate} vs {reference.sample_rate}")
    n_frames = reference.n_samples // frame_length
    if n_frames < 1:
        raise InputError("traces are shorter than one metric frame")

    shape = (n_frames, frame_length)
    ref = reference.samples[:n_frames * frame_length].reshape(shape)
    err = ref - processed.samples[:n_frames * frame_length].reshape(shape)
    num = np.sum(ref ** 2, axis=1)
    den = np.sum(err ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.clip(10.0 * np.log10(num / den), SEGSNR_FLOOR_DB, SEGSNR_CEIL_DB)
    return float(np.mean(np.where(den == 0.0, SEGSNR_CEIL_DB, snr)))
