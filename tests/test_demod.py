import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibertap import (
    AUDIO,
    BASEBAND,
    HETERODYNE,
    PHASE,
    AudioBand,
    SampledTrace,
    decimate_to_audio,
    default_config,
    edge_guard,
    highpass,
    iq_demodulate,
    record,
    recover,
    synthesize_heterodyne,
    unwrap_phase,
)
from fibertap.demod import (
    HIGHPASS_BLOCK,
    IQ_STOPBAND_DB,
    MAX_FILTER_ORDER,
    UNWRAP_MARGIN,
    _audio_filter,
    _butter_highpass_sos,
    _highpass_response,
    _kaiser_lowpass,
    _firwin_lowpass,
    highpass_padlen,
    resample,
    resample_ratio,
)
from fibertap.errors import ConfigurationError, InputError, NyquistError

from conftest import make_tone, tone_amplitude, tone_phase

CFG = default_config()
FS = 400e3
BAND = CFG.band
#: the packaged demod settings: 25 kHz beat, 500 Hz order-4 high-pass, 40 kS/s
DM = CFG.demod


def tap(f_if=25e3, alpha=0.2, fs=FS):
    """The packaged tap (balanced 1103 m arms) with this beat, echo and rate."""
    return replace(CFG.interferometer, reflection_amplitude=alpha,
                   intermediate_frequency=f_if, sample_rate=fs)


def quiet_record(ifo, duration):
    """The heterodyne record of a quiet room: a zero voice phase."""
    n = int(round(duration * ifo.sample_rate))
    return synthesize_heterodyne(ifo, SampledTrace(ifo.sample_rate, np.zeros(n), PHASE))


def lowpass_to(x, audio_rate, band=BAND, beat=DM.beat_frequency):
    """`decimate_to_audio`'s FIR and rate change, untranslated, on the real
    samples of `x`: its response to a tone at f equals the response of the
    translated FIR to a beat tone at f_beat + f."""
    cfg = replace(at_rate(audio_rate), beat_frequency=beat)
    up, down, design = _audio_filter(cfg, x.sample_rate, band)
    return resample(x.samples, up, down, _kaiser_lowpass(*design))


def trim(x, n=2000):
    return x[n:-n]


def direct_decimation(x, up, down, taps):
    """Reference path: the record zero-stuffed by `up`, convolved with
    ``up * taps`` (centred), and every `down`-th sample kept, each output
    summed directly over the taps that meet a stuffed sample."""
    half = (taps.size - 1) // 2
    y = np.empty(-(-x.size * up // down), dtype=x.dtype)
    for m in range(y.size):
        t = m * down + half  # stuffed index under taps[0]
        j = np.arange(max(0, -(-(t - taps.size + 1) // up)), min(x.size - 1, t // up) + 1)
        y[m] = up * np.dot(taps[t - j * up], x[j])
    return y


class TestDemodConfig:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            replace(DM, beat_frequency=0.0)
        with pytest.raises(ConfigurationError):
            replace(DM, highpass_cutoff=-1.0)
        with pytest.raises(ConfigurationError, match="highpass_cutoff must be finite and > 0"):
            replace(DM, highpass_cutoff=0.0)
        with pytest.raises(ConfigurationError):
            replace(DM, filter_order=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["beat_frequency", "highpass_cutoff", "audio_rate"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"demod.{field} must be finite"):
            replace(DM, **{field: value})

    def test_nyquist_check(self):
        # the beat-vs-Nyquist rule runs first: a record that also breaks the
        # rate ratio still raises NyquistError (exit 4)
        for audio_rate in (DM.audio_rate, 40000.00001):
            cfg = replace(DM, beat_frequency=250e3, audio_rate=audio_rate)
            with pytest.raises(NyquistError, match="beat_frequency must lie in"):
                edge_guard(cfg, FS, BAND, int(FS), highpass=True)

    def test_filter_order_capped(self):
        # above the cap the numpy high-pass drifts from sosfiltfilt (see
        # TestScipyReference.test_highpass_at_the_order_cap_matches_sosfiltfilt)
        tone = make_tone(40e3, 1000.0, 0.1, 1.0)
        assert replace(DM, filter_order=24).filter_order == 24
        highpass(tone, 500.0, 24)
        with pytest.raises(ConfigurationError, match=r"filter_order must lie in \[1, 24\], got 25"):
            replace(DM, filter_order=25)
        with pytest.raises(ConfigurationError, match=r"order must be an integer in \[1, 24\]"):
            highpass(tone, 500.0, 25)


class TestEdgeGuard:
    """`edge_guard` holds every rule that ties a `DemodConfig` to a record."""

    N = int(FS)  # a record long enough for every guard

    # the FIR's length in audio samples: 369 taps at 40 kHz, 247 at 80 kHz
    # and at 400 kHz (stop at the beat), 1473 at 25 kHz, 1229 at 32 kHz
    # (designed at 800 kHz) and 134 645 at 44.1 kHz (at 176.4 MHz)
    @pytest.mark.parametrize("audio_rate,guard", [
        (40e3, 37), (80e3, 50), (25e3, 93), (32e3, 50), (44100.0, 34), (FS, 247),
    ])
    def test_guard_spans_the_fir_at_the_audio_rate(self, audio_rate, guard):
        cfg = replace(DM, audio_rate=audio_rate)
        up, down = resample_ratio(FS, audio_rate)
        # the longest record whose audio output has 3 x guard samples
        n = 3 * guard * down // up
        assert edge_guard(cfg, FS, BAND, n + 1, highpass=True) == guard
        # the trim takes a guard from each edge and must leave more than one
        for highpass_on in (True, False):
            with pytest.raises(InputError, match=f"more than {3 * guard} samples; "
                                                 f"this record gives {3 * guard}$"):
                edge_guard(cfg, FS, BAND, n, highpass=highpass_on)

    # at 40 kHz the 37-sample guard leaves n / 10 - 74 samples, and the
    # high-pass pads 3 x (order + 1) at each edge and needs more
    @pytest.mark.parametrize("order,n,ok", [
        (23, 1470, True), (24, 1470, False), (24, 1500, True), (4, 1470, True),
    ])
    def test_highpass_needs_its_padding_after_the_trim(self, order, n, ok):
        cfg = replace(DM, filter_order=order)
        assert edge_guard(cfg, FS, BAND, n, highpass=False) == 37
        if ok:
            assert edge_guard(cfg, FS, BAND, n, highpass=True) == 37
        else:
            with pytest.raises(InputError, match=f"order-{order} high-pass"):
                edge_guard(cfg, FS, BAND, n, highpass=True)

    def test_beat_above_nyquist_rejected(self):
        with pytest.raises(NyquistError):
            edge_guard(DM, 48e3, BAND, self.N, highpass=True)

    @pytest.mark.parametrize("beat", [5e3, 10e3])
    def test_beat_in_the_audio_band_rejected(self, beat):
        # the FIR stops at the beat, so a beat at or below the band's top
        # would cut the band
        cfg = replace(DM, beat_frequency=beat)
        with pytest.raises(ConfigurationError, match="must lie above the audio band"):
            edge_guard(cfg, FS, BAND, self.N, highpass=True)
        edge_guard(cfg, FS, replace(BAND, f_high=beat / 2), self.N, highpass=True)

    # the high-pass runs at the audio rate, here the record's rate
    @pytest.mark.parametrize("cutoff", [500.0, FS / 2 - 1, FS / 2, FS])
    def test_highpass_cutoff_checked_as_highpass_does(self, cutoff):
        cfg = replace(DM, highpass_cutoff=cutoff, audio_rate=FS)
        tone = make_tone(FS, 1000.0, 0.01, 1.0)
        if cutoff < FS / 2:
            edge_guard(cfg, FS, BAND, self.N, highpass=True)
            highpass(tone, cutoff, 4)
        else:
            with pytest.raises(ConfigurationError, match="must lie below audio_rate/2"):
                edge_guard(cfg, FS, BAND, self.N, highpass=True)
            with pytest.raises(ConfigurationError):
                highpass(tone, cutoff, 4)

    @pytest.mark.parametrize("audio_rate", [
        16e3, 20e3, 20001.0, 22050.0, 32e3, 40e3, FS / 3, FS / np.pi, 0.0, -40e3,
    ])
    def test_same_audio_rate_rule_as_decimate_to_audio(self, audio_rate):
        def error(run):
            try:
                run()
            except ConfigurationError as exc:
                return str(exc)
            return None

        cfg = replace(DM, audio_rate=audio_rate)
        het = quiet_record(tap(), 0.01)
        expected = error(lambda: decimate_to_audio(het, cfg, BAND))
        assert error(lambda: edge_guard(cfg, FS, BAND, self.N, highpass=True)) == expected
        assert (expected is None) == (audio_rate in (22050.0, 32e3, 40e3, FS / 3))


class TestIqDemodulate:
    def test_pure_carrier_recovers_constant_phase(self):
        het = quiet_record(tap(), 0.2)
        phase = recover(het, DM, BAND, False)[0].samples
        inner = trim(phase, 200)
        assert np.max(np.abs(inner - np.mean(inner))) < 1e-6

    def test_mix_moves_the_beat_to_zero(self):
        # the translated FIR leaves the carrier turning at 25 kHz, 5/8 of a
        # turn per 40 kS/s sample; the mix takes it back to a constant
        het = quiet_record(tap(alpha=0.2), 0.01)
        cfg = DM
        beat = decimate_to_audio(het, cfg, BAND)
        z = iq_demodulate(beat, cfg)
        assert z.kind == BASEBAND and z.sample_rate == 40e3 and z.n_samples == het.n_samples // 10
        m = np.arange(z.n_samples)
        np.testing.assert_allclose(z.samples, beat.samples * np.exp(-2j * np.pi * (m * 5 % 8) / 8),
                                   rtol=0, atol=1e-15)
        inner = z.samples[37:-37]
        assert np.max(np.abs(inner - np.mean(inner))) < 1e-6

    def test_magnitude_tracks_beat_amplitude(self):
        het = quiet_record(tap(alpha=0.2), 0.1)
        cfg = DM
        z = iq_demodulate(decimate_to_audio(het, cfg, BAND), cfg)
        assert z.kind == BASEBAND
        np.testing.assert_allclose(trim(np.abs(z.samples), 200), 0.2, rtol=1e-5)

    def test_dc_term_does_not_perturb_phase(self):
        cfg = DM
        tone = make_tone(FS, 1000.0, 0.1, 0.3)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        # same record with the constant photocurrent term removed
        ac = het.with_samples(het.samples - (1 + 0.2 ** 2))
        with_dc = recover(het, cfg, BAND, False)[0].samples
        without_dc = recover(ac, cfg, BAND, False)[0].samples
        assert np.max(np.abs(trim(with_dc - without_dc, 200))) < 1e-6

    @pytest.mark.parametrize("audio_rate", [40e3, 32e3, 44100.0])
    def test_dc_term_reaches_no_output(self, audio_rate):
        # a quiet record on the weakest echo: through the 140 dB stop band
        # alone its DC term, 1 + alpha^2 against a beat of 2 alpha, left a
        # line at |audio_rate - beat| of 1.6e-5 rad RMS at 40 kS/s
        cfg = replace(DM, audio_rate=audio_rate)
        phase = recover(quiet_record(tap(alpha=0.0025), 0.5), cfg, BAND, False)[0].samples
        assert np.sqrt(np.mean((phase - np.mean(phase)) ** 2)) <= 1e-8

    @settings(derandomize=True, max_examples=20)
    @given(alpha=st.floats(0.01, 1.0), f0=st.floats(600.0, 8000.0),
           peak=st.floats(1e-3, 1.0), highpass_on=st.booleans())
    def test_recovered_phase_does_not_depend_on_alpha(self, alpha, f0, peak, highpass_on):
        # the DC term, 1 + alpha^2, and the beat, 2 alpha, change with the
        # echo; the DC null and the demodulation must leave the phase as it
        # is at alpha = 0.2, on 0.25 s of a tone that peaks at `peak` rad
        ifo = CFG.interferometer
        pressure = peak / (CFG.coupling.sensitivity * ifo.sensing_length) \
            * np.sin(2 * np.pi * f0 * np.arange(int(FS) // 4) / FS)
        voice = SampledTrace(FS, pressure, AUDIO)

        def recovered(a):
            cfg = replace(CFG, interferometer=replace(ifo, reflection_amplitude=a),
                          noise=replace(CFG.noise, enabled=False))
            return recover(record(voice, cfg, 0), DM, BAND, highpass_on)[0].samples

        np.testing.assert_allclose(recovered(alpha), recovered(0.2), rtol=0, atol=1e-9 * peak)

    def test_round_trip_half_radian_kilohertz(self):
        tone = make_tone(FS, 1000.0, 0.5, 0.5)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        cfg = DM
        rec = recover(het, cfg, BAND, False)[0].samples
        # the 40 kS/s samples after the 37-sample guard
        err = trim(rec - tone.samples[::10][37:-37], 200)
        err = err - np.mean(err)
        assert np.sqrt(np.mean(err ** 2)) < 1e-3

    def test_amplitude_invariance(self):
        tone = make_tone(FS, 700.0, 0.1, 0.4)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        cfg = DM
        a = recover(het, cfg, BAND, False)[0].samples
        b = recover(het.with_samples(het.samples * 3.7), cfg, BAND, False)[0].samples
        assert np.max(np.abs(trim(a - b, 200))) < 1e-6

    def test_round_trip_property_random_bandlimited(self):
        # wide-band modulation up to pi/2 has phase-modulation sidebands out
        # to ~26 kHz: a 40 kHz band at 160 kS/s carries them, with the beat
        # placed higher so the FIR (stop edge at the beat) rejects its DC term
        rng = np.random.default_rng(17)
        cfg = replace(DM, beat_frequency=80e3, audio_rate=160e3)
        band = replace(BAND, f_high=40e3)
        n = int(0.3 * FS)
        guard = edge_guard(cfg, FS, band, n, highpass=False)
        t = np.arange(n) / FS
        t_audio = np.arange(guard, n * 2 // 5 - guard) / cfg.audio_rate
        for alpha in (0.05, 0.2, 0.5):
            tones = [(rng.uniform(0.1, 1.0), rng.uniform(100, 10e3), rng.uniform(0, 2 * np.pi))
                     for _ in range(10)]

            def phi(t):
                return sum(a * np.sin(2 * np.pi * f * t + p) for a, f, p in tones)
            scale = (np.pi / 2) / np.max(np.abs(phi(t)))
            het = synthesize_heterodyne(
                tap(f_if=80e3, alpha=alpha),
                voice_phase=SampledTrace(FS, scale * phi(t), PHASE))
            rec = recover(het, cfg, band, False)[0].samples
            err = trim(rec - scale * phi(t_audio), 800)
            err = err - np.mean(err)
            assert np.sqrt(np.mean(err ** 2)) < 1e-3

    def test_audio_rate_reached_within_the_tolerance(self):
        # 1/10 of 400 kS/s misses 40000.00001 by 2.5e-10 relative, far past
        # rounding: the rate is rejected rather than run at 40 kS/s
        het = quiet_record(tap(), 0.01)
        odd = replace(DM, audio_rate=40000.00001)
        message = "rate 40000.00001 is not rationally related"
        with pytest.raises(ConfigurationError, match=message):
            edge_guard(odd, FS, BAND, het.n_samples, highpass=True)
        with pytest.raises(ConfigurationError, match=message):
            decimate_to_audio(het, odd, BAND)

    def test_kind_and_nyquist_errors(self):
        cfg = DM
        tone = make_tone(FS, 1000.0, 0.01, 0.5)
        het = quiet_record(tap(), 0.01)
        with pytest.raises(InputError, match="decimate_to_audio expects a 'heterodyne' trace"):
            decimate_to_audio(tone, cfg, BAND)
        for trace in (tone, het):
            with pytest.raises(InputError, match="iq_demodulate expects a 'baseband' trace"):
                iq_demodulate(trace, cfg)
        with pytest.raises(NyquistError):
            decimate_to_audio(het, replace(DM, beat_frequency=300e3), BAND)


class TestBlockedDemod:
    """The translated FIR and the decimation as `resample`'s polyphase
    products, then the mix at the audio rate, reproduce the direct
    whole-record path (mix every record sample, then filter) at lengths
    around the removed mix's 2^15-sample block, at 40, 32 and 44.1 kHz,
    and `unwrap_phase` reproduces `np.unwrap`."""

    ALPHA = 0.2
    #: the block of the removed full-rate mix and of the removed blocked unwrap
    B = 2 ** 15

    # n = blocks * B + taps_ * taps + extra, with taps the FIR's span in
    # record samples
    @pytest.mark.parametrize("blocks,taps_,extra", [
        (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 0, 0), (1, 0, 1), (3, 0, 17),
        (0, 0, 100001),
    ], ids=["1", "taps-1", "B-1", "B", "B+1", "3B+17", "100001"])
    def test_matches_whole_record_path(self, blocks, taps_, extra):
        for audio_rate in (40e3, 32e3, 44100.0):
            cfg = replace(DM, beat_frequency=31e3, audio_rate=audio_rate)
            up, down, design = _audio_filter(cfg, FS, BAND)
            taps = _kaiser_lowpass(*design)
            # the FIR translated to the beat less each polyphase branch's
            # mean, which nulls DC, moved back to 0 Hz: complex taps that
            # filter the mixed record as the translated ones filter the real
            offsets = np.arange(taps.size) - (taps.size - 1) // 2
            turn = np.exp(2j * np.pi * 31e3 / FS / up * offsets)
            translated = taps * turn
            for branch in range(up):
                translated[branch::up] -= np.mean(translated[branch::up])
            taps = translated / turn
            n = blocks * self.B + taps_ * (taps.size // up) + extra
            rng = np.random.default_rng(n)
            t = np.arange(n) / FS
            phi = 0.8 * np.sin(2 * np.pi * 900.0 * t) + 0.01 * rng.standard_normal(n)
            het = synthesize_heterodyne(tap(f_if=31e3, alpha=self.ALPHA),
                                        voice_phase=SampledTrace(FS, phi, PHASE))
            assert het.n_samples == n
            # the beat turns 31/400 of a turn per sample: angles reduced in
            # integers, exact
            mixed = het.samples * np.exp(-2j * np.pi * (np.arange(n) * 31 % 400) / 400)
            ref = direct_decimation(mixed, up, down, taps)
            baseband = iq_demodulate(decimate_to_audio(het, cfg, BAND), cfg)
            assert baseband.sample_rate == audio_rate
            assert baseband.n_samples == ref.size == -(-n * up // down)
            assert np.max(np.abs(baseband.samples - ref)) <= 1e-12 * self.ALPHA
            guard = -(-taps.size // down)
            if ref.size > 2 * guard:
                phase = unwrap_phase(baseband.with_samples(baseband.samples[guard:-guard]))
                expected = np.unwrap(np.angle(ref[guard:-guard]))
                assert np.max(np.abs(phase.samples - expected)) <= 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1),
           max_step=st.floats(0.0, 3.1),
           n=st.integers(2 * B + 1, 4 * B),
           excursion=st.sampled_from([0.0, 20 * np.pi, -20 * np.pi]))
    def test_unwrap_equals_whole_record_unwrap(self, seed, max_step, n, excursion):
        # a random walk with |step| <= max_step < pi, riding on a slow swing
        # out to `excursion` and back: np.unwrap's result within the margin,
        # NyquistError past it
        rng = np.random.default_rng(seed)
        phi = np.cumsum(rng.uniform(-max_step, max_step, n)) \
            + excursion * np.sin(np.pi * np.arange(n) / n)
        assert np.max(np.abs(np.diff(phi))) < np.pi
        z = rng.uniform(0.01, 1.0) * np.exp(1j * phi)
        expected = np.unwrap(np.angle(z))
        if np.max(np.abs(np.diff(expected))) <= UNWRAP_MARGIN:
            out = unwrap_phase(SampledTrace(FS, z, BASEBAND)).samples
            assert np.array_equal(out, expected)
        else:
            with pytest.raises(NyquistError):
                unwrap_phase(SampledTrace(FS, z, BASEBAND))


class TestMemory:
    """Peak allocations (tracemalloc) of the demod steps on a 1 s record at
    400 kS/s, in bytes per sample of each step's output. The removed
    full-rate path had bounds of 40 B/sample + 4 MB for its mix-and-FIR
    `iq_demodulate`, 20 B/sample + 4 MB for its unwrap, 16 B/sample + 2 MB
    for the high-pass and 17 B per audio sample + 4 kB for the decimation:
    42 MB in all on this record. The mix at the record's rate that followed
    it held 40 B per record sample, 400 B per 40 kS/s output."""

    #: per audio sample: the turns, reduced in place in np.longdouble, and
    #: their cast to float; then that cast and the complex rotation, which
    #: is mixed in place and handed to the trace without a copy
    IQ_BYTES_PER_OUTPUT = 24
    #: one 8192-element buffer of numpy's cast of the angles to complex, and
    #: the small objects of the call
    IQ_EXTRA_BYTES = 2 ** 17 + 2 ** 12
    #: np.unwrap's temporaries on the audio-rate baseband: the angle, its
    #: differences, their wraps and corrections, the output, and the steps
    #: checked against the margin
    UNWRAP_BYTES_PER_SAMPLE = 56
    #: the odd-extended record, filtered in place, and its trimmed copy
    HIGHPASS_BYTES_PER_SAMPLE = 16
    #: the high-pass's FFT blocks and impulse response
    HIGHPASS_BLOCK_BYTES = 2 * 2 ** 20
    #: per audio sample: the complex output, handed to the trace without a
    #: copy, and the trace's finiteness mask
    DECIMATE_BYTES_PER_OUTPUT = 17
    #: the translated FIR taps and one polyphase product (at most 2^16
    #: multiply-adds)
    DECIMATE_EXTRA_BYTES = 2 ** 17
    #: `record` per record sample, 8 B for each record-sized array: the
    #: phase, the noise's complex half-length spectrum and its transform,
    #: and later the phase, the noise and the beat, each time with the new
    #: trace's 1 B finiteness mask; the voice is dropped once it is phase
    RECORD_BYTES_PER_SAMPLE = 25
    #: the calls' small objects
    RECORD_EXTRA_BYTES = 2 ** 16
    #: `recover` per audio sample: the mixed baseband, held while it is unwrapped
    RECOVER_BYTES_PER_OUTPUT = 16 + UNWRAP_BYTES_PER_SAMPLE
    #: the removed path's bounds on this record, summed
    FULL_RATE_PATH_BYTES = (40 + 20) * 400000 + 8 * 2 ** 20 \
        + 16 * 400000 + 2 * 2 ** 20 + 17 * 40000 + 4 * 2 ** 10

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def record(self):
        cfg = DM
        het = quiet_record(tap(), 1.0)
        # imports, numpy.fft's among them
        recover(het.with_samples(het.samples[:2000]), cfg, BAND, True)
        baseband = decimate_to_audio(het, cfg, BAND)
        mixed = iq_demodulate(baseband, cfg)
        return het, cfg, baseband, mixed.with_samples(mixed.samples[37:-37])

    def bounds(self, record):
        het, _, _, audio = record
        n_out = het.n_samples // 10
        return {
            "decimate": self.DECIMATE_BYTES_PER_OUTPUT * n_out + self.DECIMATE_EXTRA_BYTES,
            "iq": self.IQ_BYTES_PER_OUTPUT * n_out + self.IQ_EXTRA_BYTES,
            "unwrap": self.UNWRAP_BYTES_PER_SAMPLE * audio.n_samples,
            "highpass": self.HIGHPASS_BYTES_PER_SAMPLE * audio.n_samples
            + self.HIGHPASS_BLOCK_BYTES,
        }

    def test_chain_bound_below_the_full_rate_path(self, record):
        assert sum(self.bounds(record).values()) <= self.FULL_RATE_PATH_BYTES

    def test_iq_demodulate_peak(self, record):
        _, cfg, baseband, _ = record
        assert self.traced_peak(iq_demodulate, baseband, cfg) <= self.bounds(record)["iq"]

    def test_decimate_to_audio_peak(self, record):
        het, cfg, _, _ = record
        peak = self.traced_peak(decimate_to_audio, het, cfg, BAND)
        assert peak <= self.bounds(record)["decimate"]

    def test_decimate_then_mix_peak(self, record):
        # both steps together hold less than the real record itself: no
        # record-sized complex array
        het, cfg, _, _ = record
        bounds = self.bounds(record)
        assert bounds["decimate"] + bounds["iq"] < 8 * het.n_samples
        peak = self.traced_peak(
            lambda: iq_demodulate(decimate_to_audio(het, cfg, BAND), cfg))
        assert peak <= bounds["decimate"] + bounds["iq"]

    def test_unwrap_phase_peak(self, record):
        _, _, _, audio = record
        assert self.traced_peak(unwrap_phase, audio) <= self.bounds(record)["unwrap"]

    # at 20 Hz the impulse response is 31 361 samples long, nearly the
    # record, and the FFT blocks have 2^16 points
    @pytest.mark.parametrize("cutoff", [20.0, 500.0])
    def test_highpass_peak(self, record, cutoff):
        _, _, _, audio = record
        phase = unwrap_phase(audio)
        peak = self.traced_peak(highpass, phase, cutoff, 4)
        bound = self.bounds(record)["highpass"]
        assert bound <= 9609509  # scipy's sosfiltfilt on the full-rate phase
        assert peak <= bound

    @pytest.mark.parametrize("level_db", [None, 70.0])
    def test_record_peak(self, level_db):
        # the input is the caller's trace, so a voice at its own level is
        # used as it is and a rescaled one is handed over; either way no
        # step's output is copied into its trace
        tone = make_tone(FS, 440.0, 1.0, 0.5, kind=AUDIO)
        record(tone.with_samples(tone.samples[:2000]), CFG, 1, level_db)  # imports
        peak = self.traced_peak(record, tone, CFG, 1, level_db)
        assert peak <= self.RECORD_BYTES_PER_SAMPLE * tone.n_samples + self.RECORD_EXTRA_BYTES

    def test_recover_peak(self, record):
        het, cfg, _, _ = record
        peak = self.traced_peak(recover, het, cfg, BAND, True)
        assert peak <= self.RECOVER_BYTES_PER_OUTPUT * (het.n_samples // 10)

    def test_44k1_decimation_design_peak(self):
        # the 134 645 taps of the 44.1 kHz design; evaluating the Kaiser
        # window on all of them took 11.1 taps-sized arrays
        args = (10e3, 22050.0, IQ_STOPBAND_DB, FS * 441)
        numtaps = _kaiser_lowpass(*args).size
        peak = self.traced_peak(_kaiser_lowpass, *args)
        assert peak <= 7.5 * 8 * numtaps


class TestUnwrapPhase:
    def test_constant_phase(self):
        z = np.full(100, np.exp(1j * 0.7))
        out = unwrap_phase(SampledTrace(1e3, z, BASEBAND))
        assert out.kind == PHASE
        np.testing.assert_allclose(out.samples, 0.7, rtol=1e-12)

    def test_ramp_crossing_pi_stays_continuous(self):
        ramp = np.linspace(0.0, 4.0, 200)  # crosses +pi
        z = np.exp(1j * ramp)
        out = unwrap_phase(SampledTrace(1e3, z, BASEBAND)).samples
        np.testing.assert_allclose(out, ramp, atol=1e-12)
        assert np.max(np.abs(np.diff(out))) < np.pi

    def test_twenty_pi_excursion(self):
        ramp = np.linspace(0.0, 20 * np.pi, 5000)
        z = np.exp(1j * ramp)
        out = unwrap_phase(SampledTrace(1e3, z, BASEBAND)).samples
        assert out[-1] - out[0] == pytest.approx(20 * np.pi, abs=1e-9)

    def test_kind_check(self):
        with pytest.raises(InputError):
            unwrap_phase(make_tone(1e3, 10.0, 0.1, 1.0))

    @pytest.mark.parametrize("step,ok", [
        (UNWRAP_MARGIN * (1 - 1e-9), True), (UNWRAP_MARGIN * (1 + 1e-9), False),
        (0.6 * np.pi, False), (-0.9 * np.pi, False),
    ])
    def test_steps_past_the_margin_rejected(self, step, ok):
        # a ramp of `step` rad per sample, one step in it the largest; steps
        # below pi unwrap correctly, and a true step beyond pi would come
        # out as its alias, so the margin sits below pi
        phi = 0.1 * step * np.arange(200)
        phi[100:] += 0.9 * step
        z = 0.3 * np.exp(1j * phi)
        if ok:
            out = unwrap_phase(SampledTrace(40e3, z, BASEBAND)).samples
            np.testing.assert_allclose(out, phi, atol=1e-12)
        else:
            with pytest.raises(NyquistError, match=f"steps by {abs(step):.3f} rad .* at "
                                                   "40000.0 S/s, past the unwrap margin"):
                unwrap_phase(SampledTrace(40e3, z, BASEBAND))


class TestHighpass:
    def test_dc_removed(self):
        tr = SampledTrace(FS, np.ones(40000), PHASE)
        out = highpass(tr, 500.0, 4).samples
        assert np.max(np.abs(trim(out, 5000))) < 1e-8

    def test_passband_tone_survives(self):
        tone = make_tone(FS, 5000.0, 0.2, 1.0)
        out = highpass(tone, 500.0, 4)
        a = tone_amplitude(trim(out.samples, 10000), FS, 5000.0)
        assert abs(20 * np.log10(a)) < 0.1

    def test_stopband_tone_crushed(self):
        tone = make_tone(FS, 100.0, 0.5, 1.0)
        out = highpass(tone, 500.0, 4)
        a = tone_amplitude(trim(out.samples, 20000), FS, 100.0)
        assert 20 * np.log10(a) < -50.0

    def test_cutoff_gain_is_minus_six_db(self):
        tone = make_tone(FS, 500.0, 0.5, 1.0)
        out = highpass(tone, 500.0, 4)
        a = tone_amplitude(trim(out.samples, 20000), FS, 500.0)
        assert 20 * np.log10(a) == pytest.approx(-6.02, abs=0.2)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = SampledTrace(FS, rng.standard_normal(10000), PHASE)
        y = SampledTrace(FS, rng.standard_normal(10000), PHASE)
        combo = SampledTrace(FS, 2.0 * x.samples + 3.0 * y.samples, PHASE)
        lhs = highpass(combo, 500.0, 4).samples
        rhs = 2.0 * highpass(x, 500.0, 4).samples + 3.0 * highpass(y, 500.0, 4).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_zero_phase_in_band(self):
        tone = make_tone(FS, 3000.0, 0.5, 1.0)
        out = highpass(tone, 500.0, 4)
        inner = slice(20000, -20000)
        shift = tone_phase(out.samples[inner], FS, 3000.0) \
            - tone_phase(tone.samples[inner], FS, 3000.0)
        assert abs(shift) < 0.01

    def test_bad_parameters(self):
        tone = make_tone(FS, 100.0, 0.01, 1.0)
        with pytest.raises(ConfigurationError):
            highpass(tone, 0.0, 4)
        with pytest.raises(ConfigurationError):
            highpass(tone, 300e3, 4)
        with pytest.raises(ConfigurationError):
            highpass(tone, 500.0, 0)


def extended_sosfiltfilt(sos, x):
    """scipy's sosfiltfilt steps (odd extension by 3 x (order + 1), forward
    and backward sosfilt from the held-input state) in np.longdouble, with
    the high-pass's exact held-input state: the first section's zi for a
    constant input x0 and a zero output is (-b0, b2) x0, and the others'
    is zero."""
    from scipy import signal
    sos = sos.astype(np.longdouble)
    pad = 3 * (2 * len(sos) + 1 - int(np.sum(sos[:, 2] == 0)))
    x = x.astype(np.longdouble)
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-pad - 2:-1]))
    zi = np.zeros((len(sos), 2), dtype=np.longdouble)
    zi[0] = -sos[0, 0], sos[0, 2]
    y = signal.sosfilt(sos, ext, zi=zi * ext[0])[0]
    y = signal.sosfilt(sos, y[::-1], zi=zi * y[-1])[0][::-1]
    return y[pad:-pad].astype(float)


def wandering_record(n, seed):
    """A 700 Hz tone on a random walk and an offset: low-frequency drift
    for the high-pass to remove."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    return (3.0 * np.sin(2 * np.pi * 700.0 * t)
            + 0.5 * np.cumsum(rng.standard_normal(n)) / np.sqrt(n) + 0.7)


class TestScipyReference:
    """The numpy FIR designs, Butterworth sections, high-pass and resampler
    against scipy.signal, which only the tests import."""

    # at 80 kHz audio the stop edge is the beat, or the audio Nyquist
    # frequency below it
    @pytest.mark.parametrize("beat", [25e3, 31e3, 50e3])
    def test_iq_taps_equal_kaiserord_firwin(self, beat):
        from scipy import signal
        cfg = replace(DM, beat_frequency=beat, audio_rate=80e3)
        up, _, design = _audio_filter(cfg, FS, BAND)
        stop = min(40e3, beat)
        assert up == 1 and design == (10e3, stop, IQ_STOPBAND_DB, FS)
        numtaps, beta = signal.kaiserord(140.0, (stop - 10e3) / (0.5 * FS))
        expected = signal.firwin(numtaps | 1, (10e3 + stop) / 2.0,
                                 window=("kaiser", beta), fs=FS)
        assert np.array_equal(_kaiser_lowpass(*design), expected)

    @pytest.mark.parametrize("rate", [40e3, 32e3, 44100.0])
    def test_decimation_taps_equal_kaiserord_firwin(self, rate):
        from scipy import signal
        up, _, design = _audio_filter(replace(DM, audio_rate=rate),
                                      FS, BAND)
        fs = FS * up
        assert design == (10e3, rate / 2, IQ_STOPBAND_DB, fs)
        numtaps, beta = signal.kaiserord(IQ_STOPBAND_DB, (rate / 2 - 10e3) / (0.5 * fs))
        expected = signal.firwin(numtaps | 1, (10e3 + rate / 2) / 2.0,
                                 window=("kaiser", beta), fs=fs)
        assert np.array_equal(_kaiser_lowpass(*design), expected)

    def test_default_resampling_taps_equal_firwin(self):
        from scipy import signal
        # resample_poly's design for 4000/441 (44.1 kHz audio into 400 kS/s)
        expected = signal.firwin(80001, 1.0 / 4000, window=("kaiser", 5.0))
        assert np.array_equal(_firwin_lowpass(80001, 1.0 / 4000, 5.0), expected)

    @pytest.mark.parametrize("numtaps", [2, 3, 64, 65])
    def test_window_mirrors_at_both_parities(self, numtaps):
        from scipy import signal
        expected = signal.firwin(numtaps, 0.3, window=("kaiser", 6.0))
        assert np.array_equal(_firwin_lowpass(numtaps, 0.3, 6.0), expected)

    @pytest.mark.parametrize("cutoff", [20.0, 300.0, 500.0, 5000.0])
    @pytest.mark.parametrize("order", [1, 3, 4, 5])
    def test_sections_equal_butter(self, order, cutoff):
        from scipy import signal
        expected = signal.butter(order, cutoff, btype="highpass", fs=FS, output="sos")
        sos = _butter_highpass_sos(order, cutoff, FS)
        assert sos.shape == expected.shape
        assert np.max(np.abs(sos - expected)) <= 1e-14 * np.max(np.abs(expected))

    # "padlen+d": the record is d samples longer than the odd extension;
    # "kstep+d": the extended record is k overlap-save steps of the in-place
    # FIR plus d samples, so one block hands its last samples to the next
    # right at the record's end
    @pytest.mark.parametrize("length", ["padlen+1", "padlen+2", 4099, 400001,
                                        "step-1", "step", "step+1",
                                        "2step-1", "2step", "2step+1"])
    @pytest.mark.parametrize("cutoff", [20.0, 300.0, 500.0])
    @pytest.mark.parametrize("order", [1, 3, 4, 5])
    def test_highpass_matches_sosfiltfilt(self, order, cutoff, length):
        from scipy import signal
        if isinstance(length, str):
            k, unit, offset = re.fullmatch(r"(\d?)(padlen|step)([+-]\d)?", length).groups()
            pad = highpass_padlen(order)
            if unit == "padlen":
                length = pad + int(offset)
            else:
                # _overlap_save's block: HIGHPASS_BLOCK points, or more for long taps
                h = _highpass_response(_butter_highpass_sos(order, cutoff, FS), 10 ** 9)
                nfft = max(HIGHPASS_BLOCK, 1 << (2 * h.size - 1).bit_length())
                length = int(k or 1) * (nfft - h.size + 1) + int(offset or 0) - 2 * pad
        x = wandering_record(length, length)
        sos = signal.butter(order, cutoff, btype="highpass", fs=FS, output="sos")
        out = highpass(SampledTrace(FS, x, PHASE), cutoff, order).samples
        exact = extended_sosfiltfilt(sos, x)
        scale = np.max(np.abs(x))
        assert np.max(np.abs(out - exact)) <= 1e-12 * scale
        # at least as close to the exact result as sosfiltfilt's float64 run
        ref = signal.sosfiltfilt(sos, x)
        assert np.max(np.abs(out - exact)) <= np.max(np.abs(ref - exact)) + 1e-14 * scale

    # cutoffs up to near Nyquist: above fs/4 the sections of an odd order
    # pair their zeros differently from butter's, with the same response
    @given(n=st.integers(1, 3000), order=st.integers(1, 6),
           cutoff=st.floats(20.0, 190e3), seed=st.integers(0, 2 ** 32 - 1))
    def test_highpass_property_over_lengths(self, n, order, cutoff, seed):
        x = wandering_record(highpass_padlen(order) + n, seed)
        sos = _butter_highpass_sos(order, cutoff, FS)
        out = highpass(SampledTrace(FS, x, PHASE), cutoff, order).samples
        assert np.max(np.abs(out - extended_sosfiltfilt(sos, x))) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("cutoff", [20.0, 500.0])
    def test_highpass_at_the_order_cap_matches_sosfiltfilt(self, cutoff):
        # at 40 kS/s the error grows to ~2e-9 at order 30 and ~5e-7 at 40
        from scipy import signal
        x = wandering_record(40000, 11)
        sos = signal.butter(MAX_FILTER_ORDER, cutoff, btype="highpass", fs=40e3,
                            output="sos")
        out = highpass(SampledTrace(40e3, x, PHASE), cutoff, MAX_FILTER_ORDER).samples
        assert np.max(np.abs(out - signal.sosfiltfilt(sos, x))) <= 1e-10 * np.max(np.abs(x))

    def test_highpass_rejects_a_record_of_padlen_samples(self):
        tone = SampledTrace(FS, np.ones(highpass_padlen(4)), PHASE)
        with pytest.raises(InputError, match="at least 16 samples; got 15"):
            highpass(tone, 500.0, 4)

    # the audio rates' ratios with their anti-alias FIRs, and the default
    # design at 1/25 and for 44.1 kHz audio into 400 kS/s
    @pytest.mark.parametrize("up,down,rate", [
        (1, 10, 40e3), (2, 25, 32e3), (1, 25, None), (441, 4000, 44100.0), (4000, 441, None),
    ])
    @pytest.mark.parametrize("length", [1, 2, "taps-1", "large"])
    def test_resample_matches_resample_poly(self, up, down, rate, length):
        from scipy import signal
        taps = None if rate is None else \
            _kaiser_lowpass(10e3, rate / 2, IQ_STOPBAND_DB, FS * up)
        ntaps = 20 * max(up, down) + 1 if taps is None else taps.size
        n = {"taps-1": ntaps - 1, "large": 44101 if up > down else 100001}.get(length, length)
        x = np.random.default_rng(n).standard_normal(n)
        expected = signal.resample_poly(x, up, down) if taps is None else \
            signal.resample_poly(x, up, down, window=taps)
        out = resample(x, up, down, taps)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(x))

    def test_resample_of_a_complex_record(self):
        # resample takes real samples: a complex record is resampled as its
        # real and imaginary parts
        from scipy import signal
        rng = np.random.default_rng(5)
        z = rng.standard_normal(5001) + 1j * rng.standard_normal(5001)
        taps = _kaiser_lowpass(10e3, 20e3, IQ_STOPBAND_DB, FS)
        with pytest.raises(InputError, match="real samples"):
            resample(z, 1, 10, taps)
        out = resample(z.real, 1, 10, taps) + 1j * resample(z.imag, 1, 10, taps)
        expected = signal.resample_poly(z, 1, 10, window=taps)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(z))

    # the translated FIRs of 40, 32 and 44.1 kHz audio from a 31 kHz beat,
    # and complex taps across several phases, with and without diagonals
    @pytest.mark.parametrize("up,down,rate", [
        (1, 10, 40e3), (2, 25, 32e3), (441, 4000, 44100.0), (3, 2, None), (5, 1, None),
    ])
    @pytest.mark.parametrize("length", [1, 2, "taps-1", "large"])
    def test_resample_with_complex_taps_matches_resample_poly(self, up, down, rate, length):
        from scipy import signal
        if rate is None:
            taps = _firwin_lowpass(20 * max(up, down) + 1, 1.0 / max(up, down), 5.0)
        else:
            taps = _kaiser_lowpass(10e3, rate / 2, IQ_STOPBAND_DB, FS * up)
        offsets = np.arange(taps.size) - (taps.size - 1) // 2
        taps = taps * np.exp(2j * np.pi * 31e3 / FS / up * offsets)
        n = {"taps-1": taps.size - 1, "large": 100001}.get(length, length)
        x = np.random.default_rng(n).standard_normal(n)
        expected = signal.resample_poly(x, up, down, window=taps)
        out = resample(x, up, down, taps)
        assert out.dtype == complex and out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(x))


def at_rate(audio_rate):
    return replace(DM, audio_rate=audio_rate)


class TestDecimateToAudio:
    """The FIR's pass and stop bands and the rate rules. The responses are
    those of the untranslated FIR (`lowpass_to`) to tones at f, which the
    translated FIR gives beat tones at f_beat + f (see `TestBlockedDemod`);
    the rates and lengths are `decimate_to_audio`'s on the same samples as a
    beat record."""

    @staticmethod
    def as_beat(trace):
        return SampledTrace(trace.sample_rate, trace.samples, HETERODYNE)

    def test_record_rate_still_filtered(self):
        # at the record's own rate the FIR still runs, stopping at the beat
        x = make_tone(FS, 1000.0, 0.05).samples + make_tone(FS, 30e3, 0.05).samples
        out = lowpass_to(SampledTrace(FS, x, PHASE), FS)
        beat = decimate_to_audio(SampledTrace(FS, x, HETERODYNE), at_rate(FS), BAND)
        assert beat.sample_rate == FS and beat.n_samples == out.size == x.size
        inner = trim(out)
        assert tone_amplitude(inner, FS, 1000.0) == pytest.approx(1.0, abs=1e-5)
        assert tone_amplitude(inner, FS, 30e3) < 1e-6

    def test_tone_preserved_through_ten_to_one(self):
        tone = make_tone(FS, 1000.0, 0.5, 1.0)
        out = lowpass_to(tone, 40e3)
        beat = decimate_to_audio(self.as_beat(tone), at_rate(40e3), BAND)
        assert beat.sample_rate == 40e3
        assert beat.n_samples == out.size == tone.n_samples // 10
        a = tone_amplitude(trim(out, 2000), 40e3, 1000.0)
        assert abs(20 * np.log10(a)) < 0.1

    def test_band_edge_preserved(self):
        tone = make_tone(FS, 10e3, 0.5, 1.0)
        out = lowpass_to(tone, 40e3)
        a = tone_amplitude(trim(out, 2000), 40e3, 10e3)
        assert abs(20 * np.log10(a)) < 0.5

    def test_alias_component_rejected(self):
        tone = make_tone(FS, 30e3, 0.5, 1.0)  # would alias to 10 kHz at 40 kS/s
        out = lowpass_to(tone, 40e3)
        residual = np.sqrt(np.mean(trim(out, 2000) ** 2))
        assert 20 * np.log10(residual / (1.0 / np.sqrt(2))) < -60.0

    def test_rational_resampling(self):
        # the beat lies below the 48 kS/s record's Nyquist frequency; the FIR
        # stops at the 16 kHz audio Nyquist frequency, as it would at 25 kHz
        tone = make_tone(48e3, 1000.0, 0.5, 1.0)
        out = lowpass_to(tone, 32e3, beat=20e3)
        a = tone_amplitude(trim(out, 2000), 32e3, 1000.0)
        assert abs(20 * np.log10(a)) < 0.1

    def test_target_too_low_for_band(self):
        beat = self.as_beat(make_tone(FS, 1000.0, 0.05, 1.0))
        with pytest.raises(ConfigurationError):
            decimate_to_audio(beat, at_rate(16e3), BAND)  # nyquist below 10 kHz band edge
        out = decimate_to_audio(beat, at_rate(16e3), AudioBand(f_low=100.0, f_high=4e3))
        assert out.sample_rate == 16e3

    @pytest.mark.parametrize("n", [40000, 40001, 40005, 40006])
    def test_polyphase_matches_full_rate_filter_then_subsample(self, n):
        from scipy import signal
        rng = np.random.default_rng(n)
        x = highpass(SampledTrace(FS, rng.standard_normal(n), PHASE), 500.0, 4)
        out = lowpass_to(x, 40e3)
        taps = _kaiser_lowpass(BAND.f_high, 20e3, IQ_STOPBAND_DB, FS)
        ref = signal.fftconvolve(x.samples, taps, mode="same")[::10]
        assert out.size == ref.size
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cd_rate_from_the_record_rate(self):
        beat = self.as_beat(make_tone(FS, 1000.0, 0.05, 1.0))
        out = decimate_to_audio(beat, at_rate(44100.0), BAND)
        assert out.sample_rate == 44100.0
        assert out.n_samples == -(-beat.n_samples * 441 // 4000)

    def test_irrational_ratio_rejected(self):
        beat = self.as_beat(make_tone(FS, 1000.0, 0.05, 1.0))
        with pytest.raises(ConfigurationError):
            decimate_to_audio(beat, at_rate(FS / np.pi * 0.9), BAND)


class TestResampleRatio:
    @pytest.mark.parametrize("rate_in,rate_out,expected", [
        (400e3, 40e3, (1, 10)), (400e3, 32e3, (2, 25)), (400e3, 16e3, (1, 25)),
        (400e3, 48e3, (3, 25)), (400e3, 44100.0, (441, 4000)),
        (400e3, 22050.0, (441, 8000)), (44100.0, 400e3, (4000, 441)),
        (48e3, 32e3, (2, 3)), (400e3, 400e3, (1, 1)),
    ])
    def test_standard_rates(self, rate_in, rate_out, expected):
        assert resample_ratio(rate_in, rate_out) == expected

    @pytest.mark.parametrize("rate_out", [0.0, -40e3, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_rejected(self, rate_out):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            resample_ratio(400e3, rate_out)

    @pytest.mark.parametrize("rate_in,rate_out", [
        (10573.0, 400e3),          # needs denominator 10573
        (400e3, 400e3 / np.pi),    # irrational
    ])
    def test_unrelated_rates_rejected(self, rate_in, rate_out):
        with pytest.raises(ConfigurationError, match="not rationally related"):
            resample_ratio(rate_in, rate_out)
