from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from fibertap import (
    AUDIO,
    SampledTrace,
    clean,
    default_config,
    detect_silent_frames,
    estimate_noise_spectrum,
    segmental_snr,
    spectral_subtract,
    subtract_power_spectrum,
)
from fibertap.enhance import (
    SEGSNR_CEIL_DB,
    SEGSNR_FLOOR_DB,
    WINDOW_SUM_FLOOR,
    _count_frames,
    _frames,
)
from fibertap.errors import ConfigurationError, EstimationError, InputError

FS = 16000.0
FRAME = 320
HOP = 160
PARAMS = default_config().enhance


def trace(x):
    return SampledTrace(FS, x, AUDIO)


def framing(frame, hop):
    """The `frame_ms`/`overlap` that `resolve(FS, n)` turns into `frame` and
    `hop` samples; every hop below an even frame is reachable."""
    return dict(frame_ms=1000.0 * frame / FS, overlap=1.0 - hop / frame)


def periodic_noise(n, seed, n_harmonics=79):
    """Stationary multitone noise with period equal to the hop, so every
    analysis frame sees an identical periodogram."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    f0 = FS / HOP  # 100 Hz
    x = np.zeros(n)
    for i in range(1, n_harmonics + 1):
        x += np.sin(2 * np.pi * f0 * i * t + rng.uniform(0, 2 * np.pi)) / np.sqrt(i)
    return x / np.sqrt(np.mean(x ** 2))


# Per-frame loop versions of the framing, kept as references for the
# vectorised code.

def frames_loop(x, frame, hop):
    n = x.size
    m = 1 + int(np.ceil((n - frame) / hop))
    out = np.zeros((m, frame))
    for i in range(m):
        seg = x[i * hop:i * hop + frame]
        out[i, :seg.size] = seg
    return out


def spectral_subtract_loop(noisy, noise_spectrum, params):
    frame, hop, _, win = params.resolve(noisy.sample_rate, noisy.n_samples)
    x = noisy.samples
    n = x.size
    lead = int(np.ceil((frame - hop) / hop)) * hop
    xp = np.concatenate([np.zeros(lead), x, np.zeros(frame)])
    out = np.zeros(xp.size)
    wsum = np.zeros(xp.size)
    for start in range(0, xp.size - frame + 1, hop):
        spec = np.fft.rfft(xp[start:start + frame] * win)
        power = np.abs(spec) ** 2
        out_power = subtract_power_spectrum(power, noise_spectrum, params)
        gain = np.sqrt(np.divide(out_power, power,
                                 out=np.zeros_like(power), where=power > 0))
        out[start:start + frame] += np.fft.irfft(spec * gain, n=frame)
        wsum[start:start + frame] += win
    y = np.divide(out, wsum, out=np.zeros_like(out), where=wsum > 1e-12)
    return y[lead:lead + n]


def segmental_snr_loop(processed, reference, frame_length):
    n_frames = reference.n_samples // frame_length
    values = np.empty(n_frames)
    for i in range(n_frames):
        ref = reference.samples[i * frame_length:(i + 1) * frame_length]
        err = ref - processed.samples[i * frame_length:(i + 1) * frame_length]
        num = np.sum(ref ** 2)
        den = np.sum(err ** 2)
        if den == 0.0:
            values[i] = SEGSNR_CEIL_DB
        elif num == 0.0:
            values[i] = SEGSNR_FLOOR_DB
        else:
            values[i] = np.clip(10.0 * np.log10(num / den),
                                SEGSNR_FLOOR_DB, SEGSNR_CEIL_DB)
    return float(np.mean(values))


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            replace(PARAMS, oversubtraction=0.5)
        with pytest.raises(ConfigurationError):
            replace(PARAMS, spectral_floor=1.0)

    def test_resolution_defaults(self):
        frame, hop, _, win = PARAMS.resolve(FS, FRAME)
        assert frame == FRAME and hop == HOP
        assert win.size == FRAME

    @pytest.mark.parametrize("kwargs", [
        dict(frame_ms=0.0), dict(frame_ms=-5.0), dict(frame_ms=float("nan")),
        dict(overlap=1.0), dict(overlap=1.5), dict(overlap=-0.1),
    ])
    def test_framing_validation(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            replace(PARAMS, **kwargs)

    def test_resolution_from_frame_ms_and_overlap(self):
        params = replace(PARAMS, frame_ms=25.0, overlap=0.75)
        assert params.resolve(FS, 400)[:2] == (400, 100)
        # an odd frame length is made even
        assert replace(PARAMS, frame_ms=1.0625, overlap=0.25).resolve(FS, 18)[:2] == (18, 14)

    @pytest.mark.parametrize("kwargs,key", [
        (dict(overlap=0.0), "overlap"), (dict(overlap=0.001), "overlap"),
        (dict(frame_ms=1.0, overlap=0.0), "overlap"),
        (framing(FRAME, FRAME), "hop"),
        (framing(2, 2), "hop"),
    ])
    def test_hop_of_a_whole_frame_rejected(self, kwargs, key):
        # the periodic Hann window is 0 at every frame start, so without
        # overlap those samples have no window sum to reconstruct from
        params = replace(PARAMS, **kwargs)
        with pytest.raises(ConfigurationError, match=key):
            params.resolve(FS, 4 * FRAME)
        x = trace(np.random.default_rng(0).standard_normal(4 * FRAME))
        with pytest.raises(ConfigurationError, match=key):
            spectral_subtract(x, np.zeros(FRAME // 2 + 1), params)


    # the smallest sum of the windows over a sample, against the floor of
    # 1e-3, and the longest hop that the floor admits at the same frame
    @pytest.mark.parametrize("frame,hop,low,longest", [
        (478, 477, 4.32e-5, 471), (478, 472, 7.77e-4, 471), (320, 318, 1.93e-4, 315),
        (800, 789, 9.41e-4, 788), (2, 2, 0.0, 1),
    ])
    def test_thin_window_sum_rejected(self, frame, hop, low, longest):
        params = replace(PARAMS, **framing(frame, hop))
        with pytest.raises(ConfigurationError,
                           match=f"enhance.overlap .* gives hop {hop} for frame length "
                                 f"{frame}, .* sum to {low:.3g}, below 0.001"):
            params.resolve(FS, frame)
        assert replace(PARAMS, **framing(frame, longest)).resolve(FS, frame)[:2] \
            == (frame, longest)

    # a frame past the float range, then a trace shorter than one frame
    # (before any window is built), then a window sum below the floor
    @pytest.mark.parametrize("kwargs,n,error,message", [
        (dict(frame_ms=1.7976931348623157e308, overlap=0.0), 10, ConfigurationError,
         "enhance.frame_ms"),
        (dict(frame_ms=1e300, overlap=0.0), 8000, InputError,
         r"trace of 8000 samples is shorter than one frame \(16000000000000"),
        (dict(overlap=0.0), FRAME - 1, InputError, "shorter than one frame"),
        (dict(overlap=0.0), FRAME, ConfigurationError, "enhance.overlap"),
    ])
    def test_resolve_checks_in_order(self, kwargs, n, error, message):
        with pytest.raises(error, match=message):
            replace(PARAMS, **kwargs).resolve(FS, n)

    def test_resolve_counts_the_frames(self):
        assert PARAMS.resolve(FS, FRAME)[2] == 1
        assert PARAMS.resolve(FS, FRAME + 1)[2] == 2
        assert PARAMS.resolve(FS, FRAME + 99 * HOP)[2] == 100


class TestFraming:
    @pytest.mark.parametrize("frame,hop", [(320, 160), (321, 107), (8, 3), (5, 5), (2, 1)])
    @pytest.mark.parametrize("extra", [0, 1, 2, 17, 160])
    def test_frames_match_loop(self, frame, hop, extra):
        x = np.random.default_rng(extra).standard_normal(frame + extra)
        ref = frames_loop(x, frame, hop)
        assert np.array_equal(_frames(x, frame, hop), ref)
        assert _count_frames(x.size, frame, hop) == ref.shape[0]

    def test_frame_count_rejects_short_record(self):
        with pytest.raises(InputError):
            _count_frames(FRAME - 1, FRAME, HOP)

    @pytest.mark.parametrize("frame,hop", [(320, 160), (800, 400), (882, 441), (322, 161)])
    @pytest.mark.parametrize("extra", [0, 1, 41, 160, 1001])
    def test_subtract_equals_loop_at_half_frame_hop(self, frame, hop, extra):
        rng = np.random.default_rng(frame + extra)
        tr = trace(rng.standard_normal(3 * frame + extra))
        params = replace(PARAMS, **framing(frame, hop))
        noise = rng.uniform(0, 2 * frame, frame // 2 + 1)
        out = spectral_subtract(tr, noise, params).samples
        assert np.array_equal(out, spectral_subtract_loop(tr, noise, params))

    @pytest.mark.parametrize("frame,hop", [(322, 107), (400, 100), (882, 617), (64, 1), (30, 29)])
    @pytest.mark.parametrize("extra", [0, 1, 41, 1000])
    def test_subtract_matches_loop_at_other_hops(self, frame, hop, extra):
        rng = np.random.default_rng(frame + hop + extra)
        tr = trace(rng.standard_normal(frame + extra))
        params = replace(PARAMS, **framing(frame, hop))
        noise = rng.uniform(0, 2 * frame, frame // 2 + 1)
        out = spectral_subtract(tr, noise, params).samples
        ref = spectral_subtract_loop(tr, noise, params)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("rate", [16000.0, 40000.0, 44100.0])
    def test_segmental_snr_equals_loop(self, rate):
        rng = np.random.default_rng(int(rate))
        n = int(rate) + 123
        ref = rng.standard_normal(n)
        proc = ref + 0.3 * rng.standard_normal(n)
        ref[:2000] = 0.0          # silent reference frames clamp low
        proc[5000:9000] = ref[5000:9000]  # zero-error frames clamp high
        a = SampledTrace(rate, proc, AUDIO)
        b = SampledTrace(rate, ref, AUDIO)
        frame = int(round(0.02 * rate))
        assert segmental_snr(a, b, frame) == segmental_snr_loop(a, b, frame)
        assert segmental_snr(a, b, 321) == segmental_snr_loop(a, b, 321)

    @given(half=st.integers(1, 256), data=st.data())
    def test_zero_noise_is_identity_for_any_overlapping_geometry(self, half, data):
        # every even frame and every hop below it: resolve() rejects the
        # geometry if some sample's windows sum below the floor, and the
        # identity holds to rounding on every other
        frame = 2 * half
        hop = data.draw(st.integers(1, frame - 1), label="hop")
        n = data.draw(st.integers(frame, frame + 1024), label="n")
        x = np.random.default_rng(n).standard_normal(n)
        params = replace(PARAMS, **framing(frame, hop))
        sums = [np.sum(np.hanning(frame + 1)[:-1][k::hop]) for k in range(hop)]
        if min(sums) < WINDOW_SUM_FLOOR:
            with pytest.raises(ConfigurationError, match="enhance.overlap"):
                params.resolve(FS, n)
            return
        out = spectral_subtract(trace(x), np.zeros(frame // 2 + 1), params).samples
        assert np.linalg.norm(out - x) <= 1e-13 * np.linalg.norm(x)


# each step built the window before it checked the trace's length, so a
# frame of 1.6e301 samples raised numpy's "Maximum allowed size exceeded"
@pytest.mark.parametrize("step", [
    lambda tr, params: detect_silent_frames(tr, params),
    lambda tr, params: estimate_noise_spectrum(tr, [0], params),
    lambda tr, params: spectral_subtract(tr, np.zeros(FRAME // 2 + 1), params),
], ids=["detect", "estimate", "subtract"])
def test_a_frame_past_the_trace_is_an_input_error(step):
    with pytest.raises(InputError, match="shorter than one frame"):
        step(trace(np.zeros(8000)), replace(PARAMS, frame_ms=1e300))


def frame_of(frame_ms):
    """The frame length at `FS` that `frame_ms` gives: rounded, at least 2, even."""
    frame = max(2, round(frame_ms * 1e-3 * FS))
    return frame + frame % 2


# frames of a few samples up to past any trace, and also within the traces drawn
FRAME_MS = st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.floats(0.05, 150.0))
OVERLAP = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.1, 0.9))


@given(frame_ms=FRAME_MS, overlap=OVERLAP, n=st.integers(2, 2000))
def test_each_step_returns_or_raises_a_fibertap_error(frame_ms, overlap, n):
    # numpy's ValueError or MemoryError would pass neither except clause
    params = replace(PARAMS, frame_ms=frame_ms, overlap=overlap)
    frame = frame_of(frame_ms)
    x = trace(np.random.default_rng(n).standard_normal(n))
    steps = [lambda: detect_silent_frames(x, params),
             lambda: estimate_noise_spectrum(x, [0], params),
             lambda: spectral_subtract(x, np.zeros(min(frame, n) // 2 + 1), params),
             lambda: clean(x, params)]
    for step in steps:
        try:
            step()
        except InputError as exc:
            assert n < frame and "shorter than one frame" in str(exc)
            event("shorter than one frame")
        except ConfigurationError as exc:
            assert n >= frame and "enhance.overlap" in str(exc)
            event("window sum below the floor")
        else:
            assert n >= frame
            event("returned")


@given(frame_ms=FRAME_MS, overlap=OVERLAP, n=st.integers(2, 2000),
       reference=st.sampled_from([None, "same", "length", "rate"]),
       profile=st.sampled_from([None, "same", "rate", "short"]))
def test_clean_checks_its_inputs_before_its_first_stage(frame_ms, overlap, n, reference,
                                                        profile):
    params = replace(PARAMS, frame_ms=frame_ms, overlap=overlap)
    rng = np.random.default_rng(n)
    shapes = {"same": (FS, n), "length": (FS, n + 1), "rate": (FS / 2, n), "short": (FS, 1)}
    ref, prof = (None if kind is None else
                 SampledTrace(shapes[kind][0], rng.standard_normal(shapes[kind][1]), AUDIO)
                 for kind in (reference, profile))
    entered = []

    def stage(name):
        entered.append(name)
        return nullcontext()

    x = trace(rng.standard_normal(n))
    mismatched = reference in ("length", "rate") or profile == "rate"
    try:
        enhanced, report = clean(x, params, prof, ref, stage)
    except (InputError, ConfigurationError):
        if mismatched or n < frame_of(frame_ms):
            assert entered == []
            event("raised before the first stage")
        return
    event("ran both stages")
    assert not mismatched
    assert entered == ["estimate-noise", "subtract"]
    assert enhanced.n_samples == n
    assert report["noise_source"] == ("silent-frames" if prof is None else "profile")
    assert (report["gain_db"] is None) == (ref is None)


class TestDetectSilentFrames:
    def test_stationary_noise_is_all_silent(self):
        rng = np.random.default_rng(1)
        tr = trace(rng.standard_normal(FRAME + 99 * HOP))
        silent = detect_silent_frames(tr, PARAMS)
        assert silent.size == 100

    def test_energy_burst_excluded(self):
        # frame-periodic noise keeps the per-frame noise energy constant, so
        # the ten-times burst sits deterministically above the threshold
        n = FRAME + 149 * HOP
        noise = periodic_noise(n, seed=2)
        t = np.arange(n) / FS
        burst = np.zeros(n)
        third = n // 3
        burst[third:2 * third] = np.sqrt(2.0 * 10.0) * np.sin(2 * np.pi * 1050.0
                                                              * t[third:2 * third])
        tr = trace(noise + burst)
        silent = set(detect_silent_frames(tr, PARAMS).tolist())
        n_frames = 150
        for i in range(n_frames):
            start, stop = i * HOP, i * HOP + FRAME
            if start >= third and stop <= 2 * third:
                assert i not in silent
            elif stop <= third or start >= 2 * third:
                assert i in silent

    def test_all_zero_trace_is_all_silent(self):
        tr = trace(np.zeros(FRAME + 10 * HOP))
        silent = detect_silent_frames(tr, PARAMS)
        assert silent.size == 11

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            detect_silent_frames(trace(np.zeros(FRAME - 1)), PARAMS)

    def test_positive_threshold_can_yield_empty_set(self):
        rng = np.random.default_rng(3)
        tr = trace(rng.standard_normal(FRAME + 50 * HOP))
        params = replace(PARAMS, silence_threshold_db=10.0)
        assert detect_silent_frames(tr, params).size == 0


class TestEstimateNoiseSpectrum:
    def test_white_noise_flat_per_bin(self):
        rng = np.random.default_rng(4)
        sigma = 0.7
        # every other half-overlapping frame: the 400 non-overlapping ones
        # keep the periodograms independent
        n_frames = 400
        tr = trace(sigma * rng.standard_normal(FRAME * n_frames))
        est = estimate_noise_spectrum(tr, np.arange(0, 2 * n_frames, 2), PARAMS)
        *_, win = PARAMS.resolve(FS, FRAME)
        expected = sigma ** 2 * np.sum(win ** 2)
        err_db = 10 * np.log10(est / expected)
        assert np.max(np.abs(err_db)) < 1.0

    def test_zero_frames_give_zero_spectrum(self):
        tr = trace(np.zeros(FRAME + 20 * HOP))
        est = estimate_noise_spectrum(tr, np.arange(5), PARAMS)
        assert np.all(est == 0.0)

    def test_invariant_to_frame_order(self):
        rng = np.random.default_rng(5)
        tr = trace(rng.standard_normal(FRAME + 60 * HOP))
        idx = np.arange(30)
        a = estimate_noise_spectrum(tr, idx, PARAMS)
        b = estimate_noise_spectrum(tr, rng.permutation(idx), PARAMS)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_set_rejected(self):
        tr = trace(np.zeros(FRAME * 4))
        with pytest.raises(EstimationError):
            estimate_noise_spectrum(tr, np.array([], dtype=int), PARAMS)

    def test_out_of_range_index_rejected(self):
        tr = trace(np.zeros(FRAME * 2))
        with pytest.raises(InputError):
            estimate_noise_spectrum(tr, np.array([99]), PARAMS)


class TestSubtractPowerSpectrum:
    def test_floor_guarantee_exact(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0, 10, 161)
        n = rng.uniform(0, 10, 161)
        out = subtract_power_spectrum(p, n, PARAMS)
        assert np.all(out >= PARAMS.spectral_floor * p)

    def test_never_amplifies(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 10, 161)
        n = rng.uniform(0, 10, 161)
        out = subtract_power_spectrum(p, n, PARAMS)
        assert np.all(out <= p)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            subtract_power_spectrum(np.ones(10), np.ones(11), PARAMS)


class TestSpectralSubtract:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(FRAME + 57 * HOP + 41)  # ragged tail
        out = spectral_subtract(trace(x), np.zeros(FRAME // 2 + 1), PARAMS)
        assert out.n_samples == x.size
        rel = np.linalg.norm(out.samples - x) / np.linalg.norm(x)
        assert rel < 1e-10

    @pytest.mark.parametrize("frame,hop", [(478, 1), (478, 2), (478, 3), (512, 1)])
    def test_zero_noise_is_identity_at_the_leading_edge(self, frame, hop):
        # the first samples get the full window sum of every frame covering
        # them, not just win[0] + win[hop] (sin^2(pi / frame) at hop 1)
        x = np.random.default_rng(frame).standard_normal(frame)
        params = replace(PARAMS, **framing(frame, hop))
        out = spectral_subtract(trace(x), np.zeros(frame // 2 + 1), params).samples
        assert np.linalg.norm(out - x) <= 1e-14 * np.linalg.norm(x)

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(9)
        for extra in (0, 1, HOP - 1, HOP, FRAME - 1):
            x = rng.standard_normal(FRAME * 3 + extra)
            out = spectral_subtract(trace(x), np.ones(FRAME // 2 + 1), PARAMS)
            assert out.n_samples == x.size

    def test_noise_only_floored_with_exact_spectrum(self):
        # frame-periodic noise has one periodogram shared by every frame, so
        # supplying it exactly drives each bin to the spectral floor
        n = FRAME + 199 * HOP
        x = periodic_noise(n, seed=10)
        tr = trace(x)
        spec = estimate_noise_spectrum(tr, np.arange(200), PARAMS)
        out = spectral_subtract(tr, spec, PARAMS).samples
        floor = PARAMS.spectral_floor
        for i in range(2, 196):  # interior frames, clear of edge padding
            ein = np.sum(x[i * HOP:i * HOP + FRAME] ** 2)
            eout = np.sum(out[i * HOP:i * HOP + FRAME] ** 2)
            assert eout <= floor * ein * (1 + 1e-9)

    def test_tone_in_white_noise_gains_six_db(self):
        # supplied (true) noise spectrum, tone present in every frame
        rng = np.random.default_rng(11)
        n = FRAME * 200
        t = np.arange(n) / FS
        clean = np.sin(2 * np.pi * 1000.0 * t)
        # white noise at 0 dB per-frame SNR: variance = tone power
        noise = rng.standard_normal(n) * np.sqrt(0.5)
        noisy = trace(clean + noise)
        *_, win = PARAMS.resolve(FS, FRAME)
        noise_spec = np.full(FRAME // 2 + 1, 0.5 * np.sum(win ** 2))
        out = spectral_subtract(noisy, noise_spec, PARAMS)
        ref = trace(clean)
        before = segmental_snr(noisy, ref, FRAME)
        after = segmental_snr(out, ref, FRAME)
        assert before == pytest.approx(0.0, abs=0.3)
        assert after - before >= 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            spectral_subtract(trace(np.zeros(FRAME * 2)), np.zeros(5), PARAMS)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            spectral_subtract(trace(np.zeros(FRAME - 2)),
                              np.zeros(FRAME // 2 + 1), PARAMS)


class TestSegmentalSnr:
    def test_identical_clamps_to_ceiling(self):
        rng = np.random.default_rng(12)
        x = trace(rng.standard_normal(FRAME * 10))
        assert segmental_snr(x, x, FRAME) == 35.0

    def test_zero_processed_gives_zero_db(self):
        rng = np.random.default_rng(13)
        ref = trace(rng.standard_normal(FRAME * 10))
        zero = trace(np.zeros(FRAME * 10))
        assert segmental_snr(zero, ref, FRAME) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_minus_three_db(self):
        rng = np.random.default_rng(14)
        n_frames = 25
        ref = rng.standard_normal(FRAME * n_frames)
        err = np.empty_like(ref)
        for i in range(n_frames):
            r = ref[i * FRAME:(i + 1) * FRAME]
            e = rng.standard_normal(FRAME)
            # scale the error so every frame sits at exactly -3 dB
            e *= np.sqrt(10 ** 0.3 * np.sum(r ** 2) / np.sum(e ** 2))
            err[i * FRAME:(i + 1) * FRAME] = e
        value = segmental_snr(trace(ref + err), trace(ref), FRAME)
        assert value == pytest.approx(-3.0, abs=0.1)

    def test_silent_reference_frames_clamp_low(self):
        ref = np.zeros(FRAME * 4)
        proc = np.ones(FRAME * 4)
        assert segmental_snr(trace(proc), trace(ref), FRAME) == -10.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            segmental_snr(trace(np.zeros(FRAME)), trace(np.zeros(FRAME * 2)), FRAME)

    def test_rate_mismatch_rejected(self):
        a = SampledTrace(8000.0, np.zeros(FRAME), AUDIO)
        b = SampledTrace(16000.0, np.zeros(FRAME), AUDIO)
        with pytest.raises(InputError):
            segmental_snr(a, b, FRAME)

    def test_traces_shorter_than_a_frame_rejected(self):
        with pytest.raises(InputError, match="shorter than one metric frame"):
            segmental_snr(trace(np.zeros(FRAME - 1)), trace(np.zeros(FRAME - 1)), FRAME)
