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

The module runs on numpy alone. Its Kaiser FIR designs are scipy's
``kaiserord``/``firwin`` to the bit; the high-pass is scipy's
``sosfiltfilt`` of ``butter``'s sections, done as two FFT convolutions with
the sections' impulse response; `resample` is scipy's ``resample_poly``
done as strided matrix products. Importing scipy's signal package would
cost about a second and 70 MB per process, more than the work itself.
"""

from __future__ import annotations

import math
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


#: Cephes' Chebyshev coefficients of exp(-x) I0(x) on [0, 8] and of
#: exp(-x) sqrt(x) I0(x) on (8, inf), the expansions scipy.special.i0 uses.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088)


def _chbevl(x, coeffs):
    """Cephes' Clenshaw recurrence for a Chebyshev series, element-wise."""
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x):
    """Modified Bessel function I0 of an array of x >= 0.

    The arithmetic of scipy.special.i0, with ``exp`` taken from the C library
    one element at a time (`np.exp` and `np.i0` differ from it by an ulp on a
    few per cent of arguments), so Kaiser windows equal scipy's bit for bit.
    """
    out = np.empty_like(x)
    small = x <= 8.0
    xs, xl = x[small], x[~small]
    out[small] = _libm_exp(xs) * _chbevl(xs / 2.0 - 2.0, _I0_A)
    out[~small] = _libm_exp(xl) * _chbevl(32.0 / xl - 2.0, _I0_B) / np.sqrt(xl)
    return out


def _libm_exp(x):
    return np.fromiter(map(math.exp, x), dtype=float, count=x.size)


def _firwin_lowpass(numtaps, cutoff, beta, fs=2.0):
    """Kaiser-windowed sinc low-pass, unit gain at DC.

    scipy's ``firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs)``,
    step for step, so the taps are the same floats.
    """
    right = cutoff / float(0.5 * fs)
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(0, numtaps, dtype=float) - alpha
    h = right * np.sinc(right * m)
    # m[-1-k] == -m[k] exactly, so the window is evaluated on its first half
    half = _i0(beta * np.sqrt(1 - (m[:(numtaps + 1) // 2] / alpha) ** 2.0))
    h *= np.concatenate([half, half[:numtaps // 2][::-1]]) / _i0(np.array([beta]))
    h /= np.sum(h)
    return h


def _kaiser_lowpass(pass_edge, stop_edge, atten_db, fs):
    """Odd-length linear-phase FIR with -6 dB point mid-transition.

    Length and Kaiser beta follow Kaiser's formulas as
    scipy's ``kaiserord`` evaluates them; the beta formula is the one
    for attenuations above 50 dB, which both of the module's designs ask for.
    """
    width = (stop_edge - pass_edge) / (0.5 * fs)
    beta = 0.1102 * (atten_db - 8.7)
    numtaps = math.ceil((atten_db - 7.95) / 2.285 / (np.pi * width) + 1) | 1
    return _firwin_lowpass(numtaps, (pass_edge + stop_edge) / 2.0, beta, fs)


def _iq_taps(cfg: DemodConfig, fs: float):
    cutoff = cfg.resolved_cutoff()
    # stop by the beat frequency so the mixed-down DC term is fully attenuated
    stop_edge = min(2.0 * cutoff, cfg.beat_frequency)
    return _kaiser_lowpass(cutoff, stop_edge, IQ_STOPBAND_DB, fs)


def iq_transient_samples(cfg: DemodConfig, sample_rate: float) -> int:
    """Edge samples of `iq_demodulate` output contaminated by the FIR ramp."""
    return _iq_taps(cfg, sample_rate).size


def edge_guard(cfg: DemodConfig, sample_rate: float, band: AudioBand,
               n_samples: int, highpass: bool = True) -> int:
    """Check `cfg` against an n-sample record at `sample_rate`; size the edge guard.

    Runs every rule that ties the parameters to the record (beat and
    high-pass cutoff below Nyquist; audio rate rational and clear of `band`,
    as `decimate_to_audio` needs), so a record is rejected before any of it
    is demodulated. Returns the guard: the FIR transient samples at each
    edge of the `iq_demodulate` output, rounded up to a whole decimation
    step, which keeps the trimmed audio on the grid of the whole record.
    `demod` trims the guard from both edges, so a record of 3 x guard
    samples or fewer is rejected (`InputError`); with `highpass`, so is one
    that leaves the high-pass too few samples after the trim.
    """
    cfg.validate_rate(sample_rate)
    if cfg.highpass_cutoff >= sample_rate / 2:
        raise ConfigurationError(
            "demod.highpass_cutoff must lie below sample_rate/2: "
            f"got {cfg.highpass_cutoff} at {sample_rate} S/s")
    up, down = _audio_ratio(sample_rate, cfg.audio_rate, band)
    step = down if up == 1 else 1
    guard = -(-iq_transient_samples(cfg, sample_rate) // step) * step
    if n_samples <= 3 * guard:
        raise InputError(
            f"demod trims a {guard}-sample edge guard from each end and needs a record "
            f"of more than {3 * guard} samples; this record has {n_samples}")
    kept, need = n_samples - 2 * guard, highpass_padlen(cfg.filter_order) + 1
    if highpass and kept < need:
        raise InputError(
            f"the order-{cfg.filter_order} high-pass needs a phase record of at "
            f"least {need} samples; this record gives it {kept}")
    return guard


def _overlap_save(taps, read, out, delay=0):
    """FIR-filter a signal block by block into `out`.

    ``out[i] = sum_k taps[k] x[i + delay - k]`` for ``0 <= delay < taps.size``,
    where x has ``out.size`` samples, is zero outside them, and is fetched
    as ``read(lo, hi) -> x[lo:hi]`` in increasing, non-overlapping ranges.
    Each block's FFT (`np.fft.rfft` for a real `out`) has ``IQ_BLOCK``
    points, or the next power of two of at least twice the taps, and yields
    ``nfft - taps.size + 1`` new samples. Every x[i] is read before out[i]
    is written, so `read` may return samples of `out` itself: the filter
    then runs in place.
    """
    keep = taps.size - 1
    nfft = max(IQ_BLOCK, 1 << (2 * taps.size - 1).bit_length())
    step = nfft - keep
    spectrum = np.fft.rfft(taps, nfft)
    if np.iscomplexobj(out):
        fft, ifft = np.fft.fft, np.fft.ifft
        # real taps: the negative frequencies are conjugates of the positive
        spectrum = np.concatenate((spectrum, spectrum[-2:0:-1].conj()))
    else:
        fft, ifft = np.fft.rfft, np.fft.irfft
    block = np.zeros(nfft, dtype=out.dtype)
    first, filled = delay - keep, 0  # x index of block[0]; next x index to read
    for start in range(0, out.size, step):
        if start:
            # the last `keep` samples of one block begin the next
            block[:keep] = block[step:]
            block[keep:] = 0
            first += step
        hi = min(first + nfft, out.size)
        if hi > filled:
            block[filled - first:hi - first] = read(filled, hi)
            filled = hi
        y = fft(block)
        y *= spectrum
        y = ifft(y, nfft)
        n = min(step, out.size - start)
        out[start:start + n] = y[keep:keep + n]


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
    fs = het.sample_rate
    taps = _iq_taps(cfg, fs)
    x = het.samples

    def mixed(lo, hi):
        t = np.arange(lo, hi) / fs
        return x[lo:hi] * np.exp(-2j * np.pi * cfg.beat_frequency * t)

    # delayed by half the taps: the centered ("same") convolution
    baseband = np.empty(x.size, dtype=np.complex128)
    _overlap_save(taps, mixed, baseband, delay=taps.size // 2)
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


def _butter_highpass_sos(order, cutoff, fs):
    """Second-order sections of the digital Butterworth high-pass.

    Built as scipy's ``butter(order, cutoff, "highpass", fs=fs,
    output="sos")`` builds them: analog prototype poles, pre-warped
    high-pass transform and bilinear transform, every zero at z = 1, one
    section per pole pair (and a first-order one for the real pole of an
    odd order) ordered from the pole farthest from the unit circle to the
    nearest, the gain in the first section.
    """
    warped = 4.0 * np.tan(np.pi * (cutoff / (fs / 2)) / 2.0)
    m = np.arange(-order + 1, order, 2, dtype=float)
    prototype = -np.exp(1j * np.pi * m / (2 * order))
    analog = warped / prototype
    poles = (4.0 + analog) / (4.0 - analog)
    gain = np.real(1.0 / np.prod(-prototype)) * np.real(4.0 ** order / np.prod(4.0 - analog))
    # the upper member of each conjugate pair, and the real pole
    poles = poles[m >= 0]
    poles = poles[np.argsort(-np.abs(1 - np.abs(poles)), kind="stable")]
    sos = np.zeros((poles.size, 6))
    for section, p in zip(sos, poles):
        if p.imag == 0:
            section[:] = [1.0, -1.0, 0.0, *np.poly([p.real, 0.0])]
        else:
            section[:] = [1.0, -2.0, 1.0, *np.poly([p, p.conj()])]
    sos[0, :3] *= gain
    return sos


def _highpass_response(sos, limit):
    """Impulse response of a cascade of sections whose zeros all lie at
    z = 1 and whose second-order sections have complex poles (Butterworth's
    high-pass), cut where what follows sums below a rounding of h[0], and at
    most `limit` samples long.

    By partial fractions over the poles of the stored coefficients: h[0] is
    the gain K and ``h[n] = sum_i R_i p_i^n`` with ``R_i = K (p_i - 1)^N /
    (p_i prod_{k != i} (p_i - p_k))``. A section's poles come from its
    a1 and a2 with ``a1^2 - 4 a2`` evaluated exactly (Dekker's split), and
    ``p^n`` as ``exp(n log p)`` with ``log |p| = log1p(a2 - 1) / 2``, so
    poles within 1e-4 of z = 1 (a 20 Hz cutoff at 400 kS/s) keep their
    full precision as offsets from 1, which a recursion in float64 would
    lose.
    """
    poles, logs = [], []
    for a1, a2 in sos[:, 4:]:
        if a2 == 0:
            poles.append(complex(-a1))
            logs.append(complex(math.log1p(abs(a1) - 1), 0.0 if a1 < 0 else math.pi))
            continue
        split = 134217729.0 * a1
        hi = split - (split - a1)
        lo = a1 - hi
        discriminant = ((hi * hi - 4.0 * a2) + 2.0 * hi * lo) + lo * lo
        p = complex(-a1 / 2.0, math.sqrt(-discriminant) / 2.0)
        for q in (p, p.conjugate()):
            poles.append(q)
            logs.append(complex(math.log1p(a2 - 1.0) / 2.0, math.atan2(q.imag, q.real)))
    p, log_p = np.array(poles), np.array(logs)
    gain = np.prod(sos[:, 0])
    residues = gain * (p - 1) ** p.size / (p * np.array(
        [np.prod(pi - np.delete(p, i)) for i, pi in enumerate(p)]))
    # the samples from n on sum to at most sum_i |R_i| r_i^n / (1 - r_i): cut
    # where every pole's term is below eps K / N
    eps = np.finfo(float).eps
    fall = -log_p.real
    length = 1 + max(0, int(np.max(np.ceil(
        np.log(eps * gain * -np.expm1(-fall) / (p.size * np.abs(residues))) / -fall))))
    n = np.arange(1, min(length, limit), dtype=float)
    h = np.empty(n.size + 1)
    h[0] = gain
    h[1:] = sum(r * np.exp(n * lp) for r, lp in zip(residues, log_p)).real
    return h


def highpass_padlen(order: int) -> int:
    """Samples of odd extension at each edge of `highpass`, sosfiltfilt's
    default: 3 x (filter order + 1). A record must be longer than this."""
    return 3 * (order + 1)


def highpass(trace: SampledTrace, cutoff: float, order: int = 4) -> SampledTrace:
    """Zero-phase Butterworth high-pass (forward-backward, -6 dB at cutoff).

    The steps of scipy's ``sosfiltfilt`` on ``butter``'s sections: the
    record is extended by `highpass_padlen` samples of odd extension at each
    end, filtered forward from the state that the input held at its first
    sample would leave, filtered backward likewise from the forward output's
    last sample, and trimmed. A high-pass has zero gain at DC, so once the
    first sample is subtracted the held input contributes nothing, and the
    start state is exact. (``sosfiltfilt`` solves for it in float64, and
    poles near z = 1 amplify that rounding: against an extended-precision
    run of its steps it errs by up to 3e-12 of the record's peak at 500 Hz
    and 9e-10 at 20 Hz, this function by ~2e-14.)

    Both passes are convolutions with the cascade's impulse response h
    (`_highpass_response`, L samples). Up to L samples before the end,
    forward then backward is one convolution with h's autocorrelation,
    done by overlap-save FFT blocks in place; the last L - 1 samples, where
    the backward pass starts, are filtered pass by pass.
    """
    if not 0 < cutoff < trace.sample_rate / 2:
        raise ConfigurationError(
            f"highpass cutoff must lie in (0, fs/2), got {cutoff} at {trace.sample_rate} S/s")
    if order < 1 or int(order) != order:
        raise ConfigurationError(f"highpass order must be a positive integer, got {order}")
    pad = highpass_padlen(int(order))
    x = trace.samples
    if x.size <= pad:
        raise InputError(f"the order-{int(order)} high-pass needs a phase record of at "
                         f"least {pad + 1} samples; got {x.size}")
    h = _highpass_response(_butter_highpass_sos(int(order), cutoff, trace.sample_rate),
                          x.size + 2 * pad)
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-pad - 2:-1]))
    ext -= ext[0]
    tail = ext.size - h.size + 1
    # the tail: the forward output from `tail` on (it reaches back h.size - 1
    # samples), then the backward pass from the end, from its last sample
    start = max(0, tail - h.size + 1)
    forward = ext[start:].copy()
    _overlap_save(h, lambda lo, hi: forward[lo:hi], forward)
    backward = forward[tail - start:][::-1]
    backward -= backward[0]
    _overlap_save(h, lambda lo, hi: backward[lo:hi], backward)
    # the rest: the autocorrelation of h, centred
    spectrum = np.fft.rfft(h, 2 * h.size)
    autocorrelation = np.fft.irfft(spectrum * spectrum.conj(), 2 * h.size)
    autocorrelation = np.concatenate((autocorrelation[-h.size + 1:], autocorrelation[:h.size]))
    _overlap_save(autocorrelation, lambda lo, hi: ext[lo:hi], ext, delay=h.size - 1)
    ext[tail:] = backward[::-1]
    return trace.with_samples(ext[pad:-pad])


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


def resample(samples: np.ndarray, up: int, down: int,
             taps: np.ndarray | None = None) -> np.ndarray:
    """Resample by ``up / down`` (coprime, as `resample_ratio` gives them).

    The samples are zero-stuffed by `up`, low-pass filtered by the odd-length
    FIR `taps` (designed at ``up`` times the input rate; by default
    scipy's ``resample_poly`` Kaiser design, beta 5, cut at
    ``1 / max(up, down)`` of the Nyquist frequency, ``20 max(up, down) + 1``
    taps) scaled by `up`, centred, and every `down`-th sample is kept:
    ``y[m] = up sum_j x[j] taps[m down - j up + half]``, with x zero outside
    the record, for ``ceil(n up / down)`` outputs. That is the output of
    ``resample_poly(samples, up, down, window=taps)``. Complex samples are
    resampled as their real and imaginary parts.

    Polyphase: the outputs fall in `up` classes ``m = m0 + s up``, each of
    which applies one phase of the taps to a window of the input that moves
    by `down` per output. A class reads its windows as a strided view of
    the record (no copy) in rows of ``w = min(taps per phase, down)``
    samples; with more taps than `down` it takes Q rows and sums their
    products with the phase's Q pieces along the diagonals (one matrix
    product per chunk of outputs instead of Q passes). Outputs whose window
    reaches past either end of the record are summed directly.
    """
    if taps is None:
        rate = max(up, down)
        taps = _firwin_lowpass(20 * rate + 1, 1.0 / rate, 5.0)
    if np.iscomplexobj(samples):
        return resample(samples.real, up, down, taps) + 1j * resample(samples.imag, up, down, taps)
    x = np.ascontiguousarray(samples, dtype=float)
    h = taps * up
    half = (h.size - 1) // 2
    n_out = -(-x.size * up // down)
    # phases[p] holds taps p, p + up, p + 2 up, ..., oldest input first,
    # zero-padded in front to Q pieces of w taps
    width = min(-(-h.size // up), down)
    pieces = -(-h.size // (up * width))
    span = pieces * width
    phases = np.zeros(span * up)
    phases[:h.size] = h
    phases = phases.reshape(span, up).T[:, ::-1].reshape(up, pieces, width).copy()
    rows = np.lib.stride_tricks.sliding_window_view(x, width) if x.size >= width else None
    # outputs per matrix product: 2^14 products, or a quarter of the output's size
    chunk = max(1, max(2 ** 14, n_out // 4) // pieces)
    y = np.empty(n_out)
    edge = []
    for m0 in range(min(up, n_out)):
        t0 = m0 * down + half
        phase = phases[t0 % up]
        newest = t0 // up  # the input under the phase's last tap, at s = 0
        count = (n_out - 1 - m0) // up + 1
        # outputs s in [lo, hi) read inputs newest + s down - span + 1 ...
        # newest + s down, all inside the record
        lo = max(0, -((newest - span + 1) // down))
        hi = min(count, (x.size - 1 - newest) // down + 1)
        if lo >= hi:
            edge.extend(range(m0, n_out, up))
            continue
        edge.extend(range(m0, m0 + lo * up, up))
        edge.extend(range(m0 + hi * up, n_out, up))
        first = newest - span + 1
        if pieces == 1:  # one row per output: a matrix-vector product, no diagonals
            y[m0 + lo * up:m0 + (hi - 1) * up + 1:up] = \
                rows[first + lo * down::down][:hi - lo] @ phase[0]
            continue
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            products = phase @ rows[first + a * down::down][:b - a + pieces - 1].T
            # output s takes piece q from row s + q: products[q, s + q]
            diagonals = np.ndarray((pieces, b - a), buffer=products,
                                   strides=((b - a + pieces) * 8, 8))
            y[m0 + a * up:m0 + (b - 1) * up + 1:up] = diagonals.sum(axis=0)
    if edge:
        m = np.array(edge)
        t = m[:, None] * down + half
        j = t // up - np.arange(-(-h.size // up))  # the inputs under the taps
        k = t - j * up                              # and their tap indices
        inside = (j >= 0) & (j < x.size) & (k < h.size)
        y[m] = np.where(inside, h[np.where(inside, k, 0)] * x[np.where(inside, j, 0)],
                        0.0).sum(axis=1)
    return y


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
    out = resample(trace.samples, up, down,
                   _kaiser_lowpass(band.f_high, target_rate / 2.0, DECIMATE_STOPBAND_DB, fs * up))
    return SampledTrace(target_rate, out, trace.kind)
