import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibertap import (
    BASEBAND,
    PHASE,
    AudioBand,
    DemodConfig,
    FiberSpec,
    LaserSpec,
    InterferometerConfig,
    SampledTrace,
    decimate_to_audio,
    edge_guard,
    highpass,
    iq_demodulate,
    iq_transient_samples,
    synthesize_heterodyne,
    unwrap_phase,
)
from fibertap.demod import (
    DECIMATE_STOPBAND_DB,
    IQ_BLOCK,
    _butter_highpass_sos,
    _iq_taps,
    _kaiser_lowpass,
    _firwin_lowpass,
    highpass_padlen,
    resample,
    resample_ratio,
)
from fibertap.errors import ConfigurationError, InputError, NyquistError

from conftest import make_tone, tone_amplitude, tone_phase

FS = 400e3


def tap(f_if=25e3, alpha=0.2, fs=FS):
    return InterferometerConfig(
        laser=LaserSpec(wavelength=1.55e-6),
        detect_fiber=FiberSpec(length=1103.0),
        reference_fiber=FiberSpec(length=2206.0),
        sensing_length=3.0,
        reflection_amplitude=alpha,
        intermediate_frequency=f_if,
        sample_rate=fs)


def demod_chain(het, cfg):
    return unwrap_phase(iq_demodulate(het, cfg))


def trim(x, n=2000):
    return x[n:-n]


def whole_record_demod(het, cfg):
    """Reference path: one centered fftconvolve over the whole mixed record,
    then np.unwrap over the whole record. Returns (baseband, phase) arrays."""
    from scipy import signal
    from fibertap.demod import _iq_taps
    t = np.arange(het.n_samples) / het.sample_rate
    mixed = het.samples * np.exp(-2j * np.pi * cfg.beat_frequency * t)
    baseband = signal.fftconvolve(mixed, _iq_taps(cfg, het.sample_rate), mode="same")
    return baseband, np.unwrap(np.angle(baseband))


class TestDemodConfig:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            DemodConfig(beat_frequency=0.0)
        with pytest.raises(ConfigurationError):
            DemodConfig(beat_frequency=25e3, lowpass_cutoff=30e3)
        with pytest.raises(ConfigurationError):
            DemodConfig(beat_frequency=25e3, highpass_cutoff=-1.0)
        with pytest.raises(ConfigurationError, match="highpass_cutoff must be finite and > 0"):
            DemodConfig(beat_frequency=25e3, highpass_cutoff=0.0)
        with pytest.raises(ConfigurationError):
            DemodConfig(beat_frequency=25e3, filter_order=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["beat_frequency", "highpass_cutoff", "audio_rate"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"demod.{field} must be finite"):
            DemodConfig(**{"beat_frequency": 25e3, field: value})

    def test_nyquist_check(self):
        cfg = DemodConfig(beat_frequency=250e3)
        with pytest.raises(NyquistError):
            cfg.validate_rate(FS)

    def test_default_cutoff_is_half_beat(self):
        assert DemodConfig(beat_frequency=25e3).resolved_cutoff() == 12.5e3


class TestEdgeGuard:
    """`edge_guard` holds every rule that ties a `DemodConfig` to a record."""

    N = int(FS)  # a record long enough for every guard

    @pytest.mark.parametrize("audio_rate,guard", [
        (40e3, 300), (80e3, 300), (25e3, 304), (32e3, 297), (44100.0, 297), (FS, 297),
    ])
    def test_guard_rounds_up_to_the_decimation_step(self, audio_rate, guard):
        cfg = DemodConfig(beat_frequency=25e3, audio_rate=audio_rate)
        assert iq_transient_samples(cfg, FS) == 297
        assert edge_guard(cfg, FS, AudioBand(), 3 * guard + 1) == guard
        # the trim takes a guard from each edge and must leave more than one
        for highpass_on in (True, False):
            with pytest.raises(InputError, match=f"more than {3 * guard} samples"):
                edge_guard(cfg, FS, AudioBand(), 3 * guard, highpass=highpass_on)

    @pytest.mark.parametrize("order,n,ok", [
        (99, 901, True), (100, 901, False), (100, 904, True), (4, 901, True),
    ])
    def test_highpass_needs_its_padding_after_the_trim(self, order, n, ok):
        cfg = DemodConfig(beat_frequency=25e3, filter_order=order)
        assert edge_guard(cfg, FS, AudioBand(), n, highpass=False) == 300
        if ok:
            assert edge_guard(cfg, FS, AudioBand(), n) == 300
        else:
            with pytest.raises(InputError, match=f"order-{order} high-pass"):
                edge_guard(cfg, FS, AudioBand(), n)

    def test_beat_above_nyquist_rejected(self):
        with pytest.raises(NyquistError):
            edge_guard(DemodConfig(beat_frequency=25e3), 48e3, AudioBand(), self.N)

    @pytest.mark.parametrize("cutoff", [500.0, FS / 2 - 1, FS / 2, FS])
    def test_highpass_cutoff_checked_as_highpass_does(self, cutoff):
        cfg = DemodConfig(beat_frequency=25e3, highpass_cutoff=cutoff)
        tone = make_tone(FS, 1000.0, 0.01, 1.0)
        if cutoff < FS / 2:
            edge_guard(cfg, FS, AudioBand(), self.N)
            highpass(tone, cutoff)
        else:
            with pytest.raises(ConfigurationError, match="must lie below sample_rate/2"):
                edge_guard(cfg, FS, AudioBand(), self.N)
            with pytest.raises(ConfigurationError):
                highpass(tone, cutoff)

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

        cfg = DemodConfig(beat_frequency=25e3, audio_rate=audio_rate)
        tone = make_tone(FS, 1000.0, 0.01, 1.0)
        expected = error(lambda: decimate_to_audio(tone, audio_rate, AudioBand()))
        assert error(lambda: edge_guard(cfg, FS, AudioBand(), self.N)) == expected
        assert (expected is None) == (audio_rate in (22050.0, 32e3, 40e3, FS / 3))


class TestIqDemodulate:
    def test_pure_carrier_recovers_constant_phase(self):
        het = synthesize_heterodyne(tap(), duration=0.2)
        phase = demod_chain(het, DemodConfig(beat_frequency=25e3)).samples
        inner = trim(phase)
        assert np.max(np.abs(inner - np.mean(inner))) < 1e-6

    def test_magnitude_tracks_beat_amplitude(self):
        het = synthesize_heterodyne(tap(alpha=0.2), duration=0.1)
        z = iq_demodulate(het, DemodConfig(beat_frequency=25e3))
        assert z.kind == BASEBAND
        np.testing.assert_allclose(trim(np.abs(z.samples)), 0.2, rtol=1e-5)

    def test_dc_term_does_not_perturb_phase(self):
        cfg = DemodConfig(beat_frequency=25e3)
        tone = make_tone(FS, 1000.0, 0.1, 0.3)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        # same record with the constant photocurrent term removed
        ac = het.with_samples(het.samples - (1 + 0.2 ** 2))
        with_dc = demod_chain(het, cfg).samples
        without_dc = demod_chain(ac, cfg).samples
        assert np.max(np.abs(trim(with_dc - without_dc))) < 1e-6

    def test_round_trip_half_radian_kilohertz(self):
        tone = make_tone(FS, 1000.0, 0.5, 0.5)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        rec = demod_chain(het, DemodConfig(beat_frequency=25e3)).samples
        err = trim(rec - tone.samples)
        err = err - np.mean(err)
        assert np.sqrt(np.mean(err ** 2)) < 1e-3

    def test_amplitude_invariance(self):
        tone = make_tone(FS, 700.0, 0.1, 0.4)
        het = synthesize_heterodyne(tap(), voice_phase=tone)
        cfg = DemodConfig(beat_frequency=25e3)
        a = demod_chain(het, cfg).samples
        b = demod_chain(het.with_samples(het.samples * 3.7), cfg).samples
        assert np.max(np.abs(trim(a - b))) < 1e-6

    def test_round_trip_property_random_bandlimited(self):
        # wide-band modulation up to pi/2 needs the beat placed higher so the
        # phase-modulation sidebands stay inside the image-reject low-pass
        rng = np.random.default_rng(17)
        cfg = DemodConfig(beat_frequency=80e3, lowpass_cutoff=40e3)
        n = int(0.3 * FS)
        t = np.arange(n) / FS
        for alpha in (0.05, 0.2, 0.5):
            phi = np.zeros(n)
            for _ in range(10):
                phi += rng.uniform(0.1, 1.0) * np.sin(
                    2 * np.pi * rng.uniform(100, 10e3) * t + rng.uniform(0, 2 * np.pi))
            phi *= (np.pi / 2) / np.max(np.abs(phi))
            het = synthesize_heterodyne(
                tap(f_if=80e3, alpha=alpha),
                voice_phase=SampledTrace(FS, phi, PHASE))
            rec = demod_chain(het, cfg).samples
            err = trim(rec - phi)
            err = err - np.mean(err)
            assert np.sqrt(np.mean(err ** 2)) < 1e-3

    def test_kind_and_nyquist_errors(self):
        tone = make_tone(FS, 1000.0, 0.01, 0.5)
        with pytest.raises(InputError):
            iq_demodulate(tone, DemodConfig(beat_frequency=25e3))
        het = synthesize_heterodyne(tap(), duration=0.01)
        with pytest.raises(NyquistError):
            iq_demodulate(het, DemodConfig(beat_frequency=300e3))


class TestBlockedDemod:
    """The overlap-save blocks of `iq_demodulate` and the unwrap blocks
    reproduce the whole-record path at every length around the block size."""

    ALPHA = 0.2
    CFG = DemodConfig(beat_frequency=31e3)

    # n = blocks * B + taps_ * taps + extra, with B = IQ_BLOCK
    @pytest.mark.parametrize("blocks,taps_,extra", [
        (0, 0, 1), (0, 1, -1), (1, 0, -1), (1, 0, 0), (1, 0, 1), (3, 0, 17),
        (0, 0, 100001),
    ], ids=["1", "taps-1", "B-1", "B", "B+1", "3B+17", "100001"])
    def test_matches_whole_record_path(self, blocks, taps_, extra):
        n = blocks * IQ_BLOCK + taps_ * iq_transient_samples(self.CFG, FS) + extra
        rng = np.random.default_rng(n)
        t = np.arange(n) / FS
        phi = 0.8 * np.sin(2 * np.pi * 900.0 * t) + 0.01 * rng.standard_normal(n)
        het = synthesize_heterodyne(tap(f_if=31e3, alpha=self.ALPHA),
                                    voice_phase=SampledTrace(FS, phi, PHASE))
        assert het.n_samples == n
        ref_baseband, ref_phase = whole_record_demod(het, self.CFG)
        baseband = iq_demodulate(het, self.CFG)
        phase = unwrap_phase(baseband)
        assert baseband.n_samples == phase.n_samples == n
        assert np.max(np.abs(baseband.samples - ref_baseband)) <= 1e-12 * self.ALPHA
        assert np.max(np.abs(phase.samples - ref_phase)) <= 1e-12

    @given(seed=st.integers(0, 2 ** 32 - 1),
           max_step=st.floats(0.0, 3.1),
           n=st.integers(2 * IQ_BLOCK + 1, 4 * IQ_BLOCK),
           excursion=st.sampled_from([0.0, 20 * np.pi, -20 * np.pi]))
    def test_unwrap_equals_whole_record_unwrap(self, seed, max_step, n, excursion):
        # a random walk with |step| <= max_step < pi, riding on a slow swing
        # out to `excursion` and back, crossing two or three block boundaries
        rng = np.random.default_rng(seed)
        phi = np.cumsum(rng.uniform(-max_step, max_step, n)) \
            + excursion * np.sin(np.pi * np.arange(n) / n)
        assert np.max(np.abs(np.diff(phi))) < np.pi
        z = rng.uniform(0.01, 1.0) * np.exp(1j * phi)
        out = unwrap_phase(SampledTrace(FS, z, BASEBAND)).samples
        assert np.array_equal(out, np.unwrap(np.angle(z)))


class TestMemory:
    """Peak allocations (tracemalloc) of the blocked steps on a 1 s record
    at 400 kS/s, in bytes per sample plus a constant for the blocks. The
    whole-record path took ~88 B/sample in iq_demodulate and ~48 B/sample
    in unwrap_phase; scipy's sosfiltfilt took 9 609 509 B (24.0 B/sample)
    for the high-pass of this record's phase, and resample_poly 684 247 B
    for its decimation to 40 kHz."""

    #: 2.5 x the complex128 output: the output and its copy into the trace
    IQ_BYTES_PER_SAMPLE = 40
    #: 2.5 x the float64 output
    UNWRAP_BYTES_PER_SAMPLE = 20
    #: block buffers, spectra and the taps
    BLOCK_BYTES = 4 * 2 ** 20
    #: the odd-extended record, filtered in place, and its trimmed copy
    HIGHPASS_BYTES_PER_SAMPLE = 16
    #: the high-pass's FFT blocks and impulse response
    HIGHPASS_BLOCK_BYTES = 2 * 2 ** 20
    #: per output sample: the output, its copy into the trace and the
    #: trace's finiteness mask
    DECIMATE_BYTES_PER_OUTPUT = 17
    DECIMATE_EXTRA_BYTES = 4 * 2 ** 10

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
        cfg = DemodConfig(beat_frequency=25e3)
        het = synthesize_heterodyne(tap(), duration=1.0)
        unwrap_phase(iq_demodulate(het.with_samples(het.samples[:1000]), cfg))  # imports
        return het, cfg

    def test_iq_demodulate_peak(self, record):
        het, cfg = record
        peak = self.traced_peak(iq_demodulate, het, cfg)
        assert peak <= self.IQ_BYTES_PER_SAMPLE * het.n_samples + self.BLOCK_BYTES

    def test_unwrap_phase_peak(self, record):
        het, cfg = record
        baseband = iq_demodulate(het, cfg)
        peak = self.traced_peak(unwrap_phase, baseband)
        assert peak <= self.UNWRAP_BYTES_PER_SAMPLE * het.n_samples + self.BLOCK_BYTES

    def test_highpass_peak(self, record):
        het, cfg = record
        phase = unwrap_phase(iq_demodulate(het, cfg))
        peak = self.traced_peak(highpass, phase, 500.0, 4)
        bound = self.HIGHPASS_BYTES_PER_SAMPLE * phase.n_samples + self.HIGHPASS_BLOCK_BYTES
        assert bound <= 9609509
        assert peak <= bound

    def test_decimate_to_audio_peak(self, record):
        het, cfg = record
        phase = highpass(unwrap_phase(iq_demodulate(het, cfg)), 500.0, 4)
        decimate_to_audio(phase, 40e3)  # imports
        peak = self.traced_peak(decimate_to_audio, phase, 40e3)
        bound = self.DECIMATE_BYTES_PER_OUTPUT * phase.n_samples // 10 \
            + self.DECIMATE_EXTRA_BYTES
        assert bound <= 684247
        assert peak <= bound

    def test_44k1_decimation_design_peak(self):
        # the 73 467 taps of the 44.1 kHz design; evaluating the Kaiser
        # window on all of them took 6 540 044 B (11.1 taps-sized arrays)
        args = (10e3, 22050.0, DECIMATE_STOPBAND_DB, FS * 441)
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

    @pytest.mark.parametrize("beat", [25e3, 31e3, 50e3])
    def test_iq_taps_equal_kaiserord_firwin(self, beat):
        from scipy import signal
        cfg = DemodConfig(beat_frequency=beat)
        cutoff = cfg.resolved_cutoff()
        stop = min(2.0 * cutoff, beat)
        numtaps, beta = signal.kaiserord(140.0, (stop - cutoff) / (0.5 * FS))
        expected = signal.firwin(numtaps | 1, (cutoff + stop) / 2.0,
                                 window=("kaiser", beta), fs=FS)
        assert np.array_equal(_iq_taps(cfg, FS), expected)

    @pytest.mark.parametrize("rate", [40e3, 32e3, 44100.0])
    def test_decimation_taps_equal_kaiserord_firwin(self, rate):
        from scipy import signal
        up, _ = resample_ratio(FS, rate)
        fs = FS * up
        numtaps, beta = signal.kaiserord(DECIMATE_STOPBAND_DB, (rate / 2 - 10e3) / (0.5 * fs))
        expected = signal.firwin(numtaps | 1, (10e3 + rate / 2) / 2.0,
                                 window=("kaiser", beta), fs=fs)
        taps = _kaiser_lowpass(10e3, rate / 2, DECIMATE_STOPBAND_DB, fs)
        assert np.array_equal(taps, expected)

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

    @pytest.mark.parametrize("length", ["padlen+1", "padlen+2", 4099, 400001])
    @pytest.mark.parametrize("cutoff", [20.0, 300.0, 500.0])
    @pytest.mark.parametrize("order", [1, 3, 4, 5])
    def test_highpass_matches_sosfiltfilt(self, order, cutoff, length):
        from scipy import signal
        if isinstance(length, str):
            length = highpass_padlen(order) + int(length[-1])
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
            _kaiser_lowpass(10e3, rate / 2, DECIMATE_STOPBAND_DB, FS * up)
        ntaps = 20 * max(up, down) + 1 if taps is None else taps.size
        n = {"taps-1": ntaps - 1, "large": 44101 if up > down else 100001}.get(length, length)
        x = np.random.default_rng(n).standard_normal(n)
        expected = signal.resample_poly(x, up, down) if taps is None else \
            signal.resample_poly(x, up, down, window=taps)
        out = resample(x, up, down, taps)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(x))


    def test_resample_of_a_complex_record(self):
        from scipy import signal
        rng = np.random.default_rng(5)
        z = rng.standard_normal(5001) + 1j * rng.standard_normal(5001)
        taps = _kaiser_lowpass(10e3, 20e3, DECIMATE_STOPBAND_DB, FS)
        out = decimate_to_audio(SampledTrace(FS, z, BASEBAND), 40e3)
        expected = signal.resample_poly(z, 1, 10, window=taps)
        assert out.kind == BASEBAND
        assert np.max(np.abs(out.samples - expected)) <= 1e-12 * np.max(np.abs(z))


class TestDecimateToAudio:
    def test_identity_when_rates_match(self):
        tone = make_tone(FS, 1000.0, 0.05, 1.0)
        assert decimate_to_audio(tone, FS) is tone

    def test_tone_preserved_through_ten_to_one(self):
        tone = make_tone(FS, 1000.0, 0.5, 1.0)
        out = decimate_to_audio(tone, 40e3)
        assert out.sample_rate == 40e3
        assert out.n_samples == tone.n_samples // 10
        a = tone_amplitude(trim(out.samples, 2000), 40e3, 1000.0)
        assert abs(20 * np.log10(a)) < 0.1

    def test_band_edge_preserved(self):
        tone = make_tone(FS, 10e3, 0.5, 1.0)
        out = decimate_to_audio(tone, 40e3)
        a = tone_amplitude(trim(out.samples, 2000), 40e3, 10e3)
        assert abs(20 * np.log10(a)) < 0.5

    def test_alias_component_rejected(self):
        tone = make_tone(FS, 30e3, 0.5, 1.0)  # would alias to 10 kHz at 40 kS/s
        out = decimate_to_audio(tone, 40e3)
        residual = np.sqrt(np.mean(trim(out.samples, 2000) ** 2))
        assert 20 * np.log10(residual / (1.0 / np.sqrt(2))) < -60.0

    def test_rational_resampling(self):
        tone = make_tone(48e3, 1000.0, 0.5, 1.0)
        out = decimate_to_audio(tone, 32e3)
        a = tone_amplitude(trim(out.samples, 2000), 32e3, 1000.0)
        assert abs(20 * np.log10(a)) < 0.1

    def test_target_too_low_for_band(self):
        tone = make_tone(FS, 1000.0, 0.05, 1.0)
        with pytest.raises(ConfigurationError):
            decimate_to_audio(tone, 16e3)  # nyquist below 10 kHz band edge
        out = decimate_to_audio(tone, 16e3, band=AudioBand(f_low=100.0, f_high=4e3))
        assert out.sample_rate == 16e3

    @pytest.mark.parametrize("n", [40000, 40001, 40005, 40006])
    def test_polyphase_matches_full_rate_filter_then_subsample(self, n):
        from scipy import signal
        from fibertap.demod import DECIMATE_STOPBAND_DB, _kaiser_lowpass
        rng = np.random.default_rng(n)
        x = highpass(SampledTrace(FS, rng.standard_normal(n), PHASE), 500.0, 4)
        out = decimate_to_audio(x, 40e3)
        band = AudioBand()
        taps = _kaiser_lowpass(band.f_high, 20e3, DECIMATE_STOPBAND_DB, FS)
        ref = signal.fftconvolve(x.samples, taps, mode="same")[::10]
        assert out.n_samples == ref.size
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cd_rate_from_the_record_rate(self):
        tone = make_tone(FS, 1000.0, 0.05, 1.0)
        out = decimate_to_audio(tone, 44100.0)
        assert out.sample_rate == 44100.0
        assert out.n_samples == -(-tone.n_samples * 441 // 4000)

    def test_irrational_ratio_rejected(self):
        tone = make_tone(FS, 1000.0, 0.05, 1.0)
        with pytest.raises(ConfigurationError):
            decimate_to_audio(tone, FS / np.pi * 0.9)


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
