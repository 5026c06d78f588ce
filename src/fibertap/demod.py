"""Phase recovery from the sampled beat: IQ demodulation, unwrapping, filtering.

Mixing the real heterodyne record with ``exp(-j 2 pi f_beat t)`` would leave
a complex baseband whose argument is the instantaneous interferometer phase
and whose magnitude tracks the beat amplitude, plus the mixed-down DC term
at -f_beat and the image at -2 f_beat. One linear-phase Kaiser FIR rejects
both and is the anti-alias filter of the decimation to the audio rate.
Mixing and then filtering equals filtering the real record with the FIR
translated to the beat and then mixing only the filtered outputs (a
frequency-translating FIR), so the low-pass, the rate change and the image
rejection are one polyphase pass over the real record
(`decimate_to_audio`), and the mix runs at the audio rate
(`iq_demodulate`). The FIR is applied with a centered kernel, so the
recovered phase has no group delay. The phase is unwrapped, and the slow
environmental drift high-passed, at the audio rate; the high-pass is a
forward-backward Butterworth for the same reason.

The module runs on numpy alone. Its Kaiser FIR design is scipy's
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

from ._numpy import np
from .errors import ConfigurationError, InputError, NyquistError
from .noise import AudioBand
from .trace import BASEBAND, HETERODYNE, PHASE, SampledTrace

#: Stopband attenuation of the demodulation FIR. The DC photocurrent term,
#: 1 + alpha^2 against a beat of 2 alpha, is not left to it:
#: `decimate_to_audio` nulls DC in the taps. Through the stop band alone, a
#: 2 s quiet record at 40 kS/s carried a 15 kHz line of 2.1e-7 rad RMS at
#: alpha = 0.2 and 1.6e-5 rad at alpha = 0.0025.
IQ_STOPBAND_DB = 140.0

#: Points of each FFT block of the high-pass's overlap-save convolutions.
#: The FFT grows to the next power of two of at least twice the kernel
#: length when the kernel is longer, so a block always yields more new
#: output than it overlaps.
HIGHPASS_BLOCK = 2 ** 15

#: Largest wrapped phase step, in rad, that `unwrap_phase` accepts between
#: two samples. Unwrapping takes every step to lie within pi; a step of pi/2
#: or less keeps a quarter turn of headroom before a true step is mistaken
#: for its 2 pi alias. At 40 kS/s a 10 kHz tone of amplitude A steps by up
#: to 2 A sin(pi/4) = 1.41 A, so the margin is a 1.11 rad tone: 108 dB SPL
#: (peak) on the default 3 m tail at 0.0717 rad/(Pa m).
UNWRAP_MARGIN = math.pi / 2

#: Highest Butterworth order of `highpass`. Against ``sosfiltfilt`` of
#: ``butter``'s sections at 40 kS/s (a drifting tone of unit peak, cutoffs
#: 20-500 Hz) the numpy high-pass errs by at most 3e-11 up to order 24, by
#: 5e-10 to 2e-9 at order 30 and by 2e-7 to 7e-7 at order 40.
MAX_FILTER_ORDER = 24


@dataclass(frozen=True)
class DemodConfig:
    """Parameters of `demod`: beat frequency, high-pass and audio rate.

    ``beat_frequency`` must equal the carrier actually present in the record
    (`load_config` takes it from ``interferometer.intermediate_frequency_hz``).
    The demodulation FIR passes the audio band and stops at
    ``min(audio_rate / 2, beat_frequency)``, so the beat must lie above the
    band. `edge_guard` checks the parameters against the band and a record's
    sample rate.
    """

    beat_frequency: float
    highpass_cutoff: float
    filter_order: int
    audio_rate: float

    def __post_init__(self):
        if not 0 < self.beat_frequency < math.inf:
            raise ConfigurationError(
                f"demod.beat_frequency must be finite and > 0, got {self.beat_frequency}")
        if not 0 < self.highpass_cutoff < math.inf:
            raise ConfigurationError(
                f"demod.highpass_cutoff must be finite and > 0, got {self.highpass_cutoff}")
        if not 1 <= self.filter_order <= MAX_FILTER_ORDER:
            raise ConfigurationError(
                f"demod.filter_order must lie in [1, {MAX_FILTER_ORDER}], "
                f"got {self.filter_order}")
        if not math.isfinite(self.audio_rate):
            raise ConfigurationError(f"demod.audio_rate must be finite, got {self.audio_rate}")


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


def _kaiser_numtaps(pass_edge, stop_edge, atten_db, fs):
    """Length of `_kaiser_lowpass`'s FIR, by Kaiser's formula as scipy's
    ``kaiserord`` evaluates it, rounded up to odd."""
    width = (stop_edge - pass_edge) / (0.5 * fs)
    return math.ceil((atten_db - 7.95) / 2.285 / (np.pi * width) + 1) | 1


def _kaiser_lowpass(pass_edge, stop_edge, atten_db, fs):
    """Odd-length linear-phase FIR with -6 dB point mid-transition.

    Length (`_kaiser_numtaps`) and Kaiser beta follow Kaiser's formulas as
    scipy's ``kaiserord`` evaluates them; the beta formula is the one
    for attenuations above 50 dB, which `IQ_STOPBAND_DB` asks for.
    """
    beta = 0.1102 * (atten_db - 8.7)
    numtaps = _kaiser_numtaps(pass_edge, stop_edge, atten_db, fs)
    return _firwin_lowpass(numtaps, (pass_edge + stop_edge) / 2.0, beta, fs)


def _audio_filter(cfg: DemodConfig, rate_in: float, band: AudioBand):
    """Polyphase factors (up, down) from `rate_in` to the audio rate, and the
    design of the demodulation FIR at ``up * rate_in``: the arguments of
    `_kaiser_lowpass` and `_kaiser_numtaps`.

    The FIR passes `band` and stops at the audio Nyquist frequency or at the
    beat, whichever is lower: nothing that would alias into the audio record
    gets through, and neither does the DC term that mixing moves to -beat.
    So the beat must lie below the Nyquist frequency of `rate_in` (checked
    first, `NyquistError`), the audio rate must be rationally related to
    `rate_in` (see `resample_ratio`), and both its Nyquist frequency and the
    beat must lie above the band.
    """
    if not 0 < cfg.beat_frequency < rate_in / 2:
        raise NyquistError(
            "demod.beat_frequency must lie in (0, sample_rate/2): "
            f"got {cfg.beat_frequency} at {rate_in} S/s")
    up, down = resample_ratio(rate_in, cfg.audio_rate)
    if cfg.audio_rate / 2.0 <= band.f_high:
        raise ConfigurationError(
            f"audio rate {cfg.audio_rate} cannot carry the audio band "
            f"(need audio rate/2 > {band.f_high})")
    if cfg.beat_frequency <= band.f_high:
        raise ConfigurationError(
            f"demod.beat_frequency {cfg.beat_frequency} must lie above the audio band "
            f"(band.f_high {band.f_high}): the demodulation low-pass would cut the band")
    stop_edge = min(cfg.audio_rate / 2.0, cfg.beat_frequency)
    return up, down, (band.f_high, stop_edge, IQ_STOPBAND_DB, rate_in * up)


def edge_guard(cfg: DemodConfig, sample_rate: float, band: AudioBand,
               n_samples: int, highpass: bool) -> int:
    """Check `cfg` against an n-sample record at `sample_rate`; size the edge guard.

    Runs every rule that ties the parameters to the record and the band
    (the rules of `decimate_to_audio`, beat below Nyquist first, and the
    high-pass cutoff below the audio Nyquist frequency), so a record is
    rejected before any of it is demodulated. Returns the guard: the FIR's
    length in audio samples, which covers every `decimate_to_audio` output
    near either edge whose taps reach past the record. `recover` trims the
    guard from both edges, so a record whose audio output has 3 x guard
    samples or fewer is rejected (`InputError`); with `highpass`, so is one
    that leaves the high-pass too few samples after the trim.
    """
    up, down, design = _audio_filter(cfg, sample_rate, band)
    if cfg.highpass_cutoff >= cfg.audio_rate / 2:
        raise ConfigurationError(
            "demod.highpass_cutoff must lie below audio_rate/2: "
            f"got {cfg.highpass_cutoff} at {cfg.audio_rate} S/s")
    guard = -(-_kaiser_numtaps(*design) // down)
    n_audio = -(-n_samples * up // down)
    if n_audio <= 3 * guard:
        raise InputError(
            f"demod trims a {guard}-sample edge guard from each end of the audio record "
            f"and needs one of more than {3 * guard} samples; this record gives {n_audio}")
    kept, need = n_audio - 2 * guard, highpass_padlen(cfg.filter_order) + 1
    if highpass and kept < need:
        raise InputError(
            f"the order-{cfg.filter_order} high-pass needs a phase record of at "
            f"least {need} samples; this record gives it {kept}")
    return guard


def _overlap_save(taps, x):
    """FIR-filter a real signal in place, block by block.

    ``x[i] <- sum_k taps[k] x[i - k]``, with x zero before its first sample.
    Each block's FFT has ``HIGHPASS_BLOCK`` points, or the next power of two of
    at least twice the taps, and yields ``nfft - taps.size + 1`` new
    samples; the block keeps the last ``taps.size - 1`` input samples for
    the next, so each x[i] is read before it is overwritten.
    """
    keep = taps.size - 1
    nfft = max(HIGHPASS_BLOCK, 1 << (2 * taps.size - 1).bit_length())
    step = nfft - keep
    spectrum = np.fft.rfft(taps, nfft)
    block = np.zeros(nfft)
    for start in range(0, x.size, step):
        n = min(step, x.size - start)
        block[:keep] = block[step:]
        block[keep:keep + n] = x[start:start + n]
        y = np.fft.rfft(block)
        y *= spectrum
        x[start:start + n] = np.fft.irfft(y, nfft)[keep:keep + n]


def unwrap_phase(baseband: SampledTrace) -> SampledTrace:
    """Continuous phase of a complex baseband trace: ``np.unwrap(np.angle(z))``.

    Unwrapping brings each step between samples into [-pi, pi], which is
    right only while the true step stays below pi. A step larger than
    `UNWRAP_MARGIN` leaves too little headroom to tell, so it raises
    `NyquistError`: the phase moves too fast for the sample rate.
    """
    if baseband.kind != BASEBAND:
        raise InputError(f"unwrap_phase expects a {BASEBAND!r} trace, got {baseband.kind!r}")
    phase = np.unwrap(np.angle(baseband.samples))
    worst = float(np.max(np.abs(np.diff(phase)), initial=0.0))
    if worst > UNWRAP_MARGIN:
        raise NyquistError(
            f"the recovered phase steps by {worst:.3f} rad between two samples at "
            f"{baseband.sample_rate} S/s, past the unwrap margin of pi/2: it moves too "
            "fast for this rate (a sound too loud or too high, or a beat frequency "
            "that is not the record's)")
    return SampledTrace._adopt(baseband.sample_rate, phase, PHASE)


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


def highpass(trace: SampledTrace, cutoff: float, order: int) -> SampledTrace:
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

    Each pass is a convolution with the cascade's impulse response
    (`_highpass_response`), done in place by overlap-save FFT blocks; the
    backward pass filters the reversed view of the forward output.
    """
    if not 0 < cutoff < trace.sample_rate / 2:
        raise ConfigurationError(
            f"highpass cutoff must lie in (0, fs/2), got {cutoff} at {trace.sample_rate} S/s")
    if not 1 <= order <= MAX_FILTER_ORDER or int(order) != order:
        raise ConfigurationError(
            f"highpass order must be an integer in [1, {MAX_FILTER_ORDER}], got {order}")
    pad = highpass_padlen(int(order))
    x = trace.samples
    if x.size <= pad:
        raise InputError(f"the order-{int(order)} high-pass needs a phase record of at "
                         f"least {pad + 1} samples; got {x.size}")
    h = _highpass_response(_butter_highpass_sos(int(order), cutoff, trace.sample_rate),
                          x.size + 2 * pad)
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-pad - 2:-1]))
    for view in (ext, ext[::-1]):
        view -= view[0]
        _overlap_save(h, view)
    return SampledTrace._adopt(trace.sample_rate, ext[pad:-pad], trace.kind)


def resample_ratio(rate_in: float, rate_out: float) -> tuple[int, int]:
    """Polyphase factors (up, down) that take `rate_in` to `rate_out`.

    The ratio is the fraction nearest ``rate_out / rate_in`` with a
    denominator of at most 10000, and it must reproduce `rate_out` to
    rounding, within 1e-12 relative: 400 kS/s reaches 40, 32 and 44.1 kHz
    (1/10, 2/25, 441/4000), while a rate needing a larger denominator, or
    one a little off a reachable rate (40000.00001), is rejected rather
    than resampled approximately.
    """
    if not np.isfinite(rate_out) or rate_out <= 0:
        raise ConfigurationError(f"resampling rate must be finite and > 0, got {rate_out}")
    frac = Fraction(rate_out / rate_in).limit_denominator(10000)
    up, down = frac.numerator, frac.denominator
    if abs(rate_in * up / down - rate_out) > 1e-12 * rate_out:
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
    ``resample_poly(samples, up, down, window=taps)``. The samples are real;
    the taps may be complex, and then so is the output.

    Polyphase: the outputs fall in `up` classes ``m = m0 + s up``, each of
    which applies one phase of the taps to a window of the input that moves
    by `down` per output. A class reads its windows as a strided view of
    the record (no copy) in rows of ``w = min(taps per phase, down)``
    samples, takes Q rows per output and sums their products with the
    phase's Q pieces along the diagonals (one matrix product per chunk of
    outputs instead of Q passes); Q is 1 when a phase has no more taps than
    `down`. Outputs whose window reaches past either end of the record are
    summed directly.
    """
    if taps is None:
        rate = max(up, down)
        taps = _firwin_lowpass(20 * rate + 1, 1.0 / rate, 5.0)
    if np.iscomplexobj(samples):
        raise InputError("resample takes real samples (the taps may be complex)")
    x = np.ascontiguousarray(samples, dtype=float)
    h = taps * up
    half = (h.size - 1) // 2
    n_out = -(-x.size * up // down)
    # phases[p] holds taps p, p + up, p + 2 up, ..., oldest input first,
    # zero-padded in front to Q pieces of w taps; complex taps as their real
    # then their imaginary parts (c = 2 parts), so that every product is real
    width = min(-(-h.size // up), down)
    pieces = -(-h.size // (up * width))
    span = pieces * width
    phases = np.zeros(span * up, dtype=np.result_type(h, float))
    phases[:h.size] = h
    y = np.empty(n_out, dtype=phases.dtype)
    parts = phases.view(float).reshape(span, up, -1)
    c = parts.shape[2]
    y_parts = y.view(float).reshape(n_out, c)
    phases = parts.transpose(1, 2, 0)[:, :, ::-1].reshape(up, c * pieces, width).copy()
    rows = np.lib.stride_tricks.sliding_window_view(x, width) if x.size >= width else None
    # outputs per matrix product: at most 2^16 multiply-adds, which OpenBLAS
    # does on the calling thread. A larger product it splits across threads,
    # and when another process keeps a CPU busy, the threads spin-wait on
    # each other: a 10 s record then took 0.5-6 s to decimate, not 0.06 s.
    chunk = max(1, 2 ** 16 // (c * span) - pieces + 1)
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
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            window = rows[first + a * down::down][:b - a + pieces - 1]
            out = slice(m0 + a * up, m0 + (b - 1) * up + 1, up)
            products = phase @ window.T
            # output s takes piece q of part i from row s + q:
            # products[i Q + q, s + q]
            row, item = products.strides
            diagonals = np.ndarray((c, pieces, b - a), dtype=float, buffer=products,
                                   strides=(pieces * row, row + item, item))
            y_parts[out] = diagonals.sum(axis=1).T
    taps_per_phase = np.arange(-(-h.size // up))
    for m in edge:
        t = m * down + half
        j = t // up - taps_per_phase  # the inputs under the taps
        k = t - j * up                # and their tap indices
        inside = (j >= 0) & (j < x.size) & (k < h.size)
        y[m] = np.where(inside, h[np.where(inside, k, 0)] * x[np.where(inside, j, 0)],
                        0.0).sum()
    return y


def decimate_to_audio(het: SampledTrace, cfg: DemodConfig,
                      band: AudioBand) -> SampledTrace:
    """Filter the beat record to the audio rate with the FIR translated to the beat.

    `resample` applies the demodulation FIR (`_audio_filter`), its taps
    ``h[k]`` moved to ``h[k] exp(j 2 pi (f_beat / fs) (k - half) / up)``, to
    the real record: the band around +f_beat passes, the DC term and the
    band around -f_beat stop. Each polyphase branch of the translated taps
    (taps ``p, p + up, ...``, which one class of outputs applies) then
    loses its mean, so it sums to zero: the record's DC term, 1 + alpha^2
    against a beat of 2 alpha, reaches no output, where the stop band
    alone would pass a line at ``|audio_rate - f_beat|`` that grows as
    1/alpha. The ``baseband`` trace returned is labelled ``cfg.audio_rate``,
    which the rate reached, ``fs up / down``, matches to 1e-12 relative
    (`resample_ratio`), and still turns at f_beat: output m is the
    mix-then-filter output times ``exp(j 2 pi f_beat m / rate)``, which
    `iq_demodulate` removes. The first and last `edge_guard` outputs
    see the record's edges.
    """
    if het.kind != HETERODYNE:
        raise InputError(f"decimate_to_audio expects a {HETERODYNE!r} trace, got {het.kind!r}")
    up, down, design = _audio_filter(cfg, het.sample_rate, band)
    h = _kaiser_lowpass(*design)
    offsets = np.arange(h.size) - (h.size - 1) // 2
    h = h * np.exp(2j * np.pi * (cfg.beat_frequency / het.sample_rate / up) * offsets)
    for branch in range(up):  # taps branch, branch + up, ...: one output class each
        h[branch::up] -= np.mean(h[branch::up])
    return SampledTrace._adopt(cfg.audio_rate, resample(het.samples, up, down, h), BASEBAND)


def iq_demodulate(z: SampledTrace, cfg: DemodConfig) -> SampledTrace:
    """Mix `decimate_to_audio`'s output to 0 Hz: ``z[m] exp(-j 2 pi f_beat m / rate)``.

    The angle in turns, ``m f_beat / rate``, is reduced modulo 1 in
    ``np.longdouble`` (a 64-bit significand on x86-64) before the sine and
    cosine, not rounded at ~1e6 rad in float64. The result's argument is
    the phase.
    """
    if z.kind != BASEBAND:
        raise InputError(f"iq_demodulate expects a {BASEBAND!r} trace, got {z.kind!r}")
    turns = np.arange(z.n_samples, dtype=np.longdouble)
    turns *= np.longdouble(cfg.beat_frequency) / z.sample_rate  # per sample
    mixed = np.mod(turns, 1, out=turns).astype(float)
    del turns
    mixed = mixed * (-2j * np.pi)
    np.exp(mixed, out=mixed)
    mixed *= z.samples
    return SampledTrace._adopt(z.sample_rate, mixed, BASEBAND)
