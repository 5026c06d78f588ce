import numpy as np
import pytest

from fibertap import (
    AUDIO,
    HETERODYNE,
    PHASE,
    AcousticCoupling,
    FiberSpec,
    InterferometerConfig,
    LaserSpec,
    SampledTrace,
    pressure_to_spl,
    spl_to_pressure,
    synthesize_heterodyne,
    voice_to_phase,
)
from fibertap.errors import ConfigurationError, InputError, NyquistError
from fibertap.model import SPEED_OF_LIGHT

from conftest import make_pressure_tone


def small_config(**overrides):
    laser = LaserSpec(wavelength=1.55e-6)
    kwargs = dict(
        laser=laser,
        detect_fiber=FiberSpec(length=1103.0),
        reference_fiber=FiberSpec(length=2206.0),
        sensing_length=3.0,
        reflection_amplitude=0.2,
        intermediate_frequency=25e3,
        sample_rate=400e3,
    )
    kwargs.update(overrides)
    return InterferometerConfig(**kwargs)


class TestLaserSpec:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            LaserSpec(wavelength=0.0)
        with pytest.raises(ConfigurationError):
            LaserSpec(wavelength=1.55e-6, white_freq_psd=-1.0)
        with pytest.raises(ConfigurationError):
            LaserSpec(wavelength=1.55e-6, flicker_coeff=-1.0)


class TestFiberSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(length=-1.0),
        dict(length=1.0, refractive_index=1.0),
        dict(length=1.0, bulk_modulus_area_product=0.0),
        dict(length=1.0, loss_angle=0.0),
        dict(length=1.0, temperature=0.0),
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ConfigurationError):
            FiberSpec(**kwargs)


class TestInterferometerConfig:
    def test_nyquist_violation(self):
        with pytest.raises(NyquistError):
            small_config(intermediate_frequency=200e3)
        with pytest.raises(NyquistError):
            small_config(intermediate_frequency=250e3)

    def test_sensing_longer_than_arm(self):
        with pytest.raises(ConfigurationError):
            small_config(sensing_length=2000.0)

    def test_reflection_amplitude_range(self):
        with pytest.raises(ConfigurationError):
            small_config(reflection_amplitude=1.5)

    def test_arm_mismatch_and_delay(self):
        cfg = small_config(reference_fiber=FiberSpec(length=2306.0))
        assert cfg.arm_mismatch() == pytest.approx(100.0)
        assert cfg.delay_mismatch() == pytest.approx(
            1.468 * 100.0 / SPEED_OF_LIGHT, rel=1e-12)

    def test_balanced_arms_have_zero_delay(self):
        assert small_config().delay_mismatch() == 0.0


class TestSplToPressure:
    def test_reference_level(self):
        assert spl_to_pressure(0.0) == pytest.approx(20e-6, rel=1e-12)

    def test_factor_ten_per_twenty_db(self):
        assert spl_to_pressure(20.0) == pytest.approx(200e-6, rel=1e-12)

    def test_94_db_matches_direct_formula(self):
        # independent evaluation of 2e-5 * 10^(94/20)
        assert spl_to_pressure(94.0) == pytest.approx(1.0023744672545452, rel=1e-12)

    def test_pressure_to_spl_inverse(self):
        for level in (0.0, 30.0, 61.7, 94.0):
            assert pressure_to_spl(spl_to_pressure(level)) == pytest.approx(level, abs=1e-12)

    def test_zero_pressure_maps_to_minus_inf(self):
        assert pressure_to_spl(0.0) == -np.inf


class TestVoiceToPhase:
    coupling = AcousticCoupling(sensitivity=0.07)

    def test_zero_audio_gives_zero_phase(self):
        audio = SampledTrace(1000.0, np.zeros(100), AUDIO)
        phase = voice_to_phase(audio, self.coupling, 3.0)
        assert phase.kind == PHASE
        assert np.all(phase.samples == 0.0)

    def test_length_ratio_three_to_one(self):
        audio = make_pressure_tone(8000.0, 440.0, 0.1, 0.3)
        p3 = voice_to_phase(audio, self.coupling, 3.0)
        p1 = voice_to_phase(audio, self.coupling, 1.0)
        np.testing.assert_allclose(p3.samples, 3.0 * p1.samples, rtol=1e-12)

    def test_sine_amplitude_per_sample_oracle(self):
        fs, f0, amp = 48000.0, 1000.0, 0.25
        audio = make_pressure_tone(fs, f0, 0.05, amp)
        phase = voice_to_phase(audio, self.coupling, 3.0)
        expected = np.array([self.coupling.sensitivity * 3.0 * x
                             for x in audio.samples])
        np.testing.assert_allclose(phase.samples, expected, rtol=1e-15)
        assert np.max(np.abs(phase.samples)) == pytest.approx(
            self.coupling.sensitivity * 3.0 * amp, rel=1e-3)

    def test_linearity_in_amplitude(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(256)
        audio = SampledTrace(1000.0, x, AUDIO)
        scaled = SampledTrace(1000.0, 2.5 * x, AUDIO)
        a = voice_to_phase(scaled, self.coupling, 2.0).samples
        b = 2.5 * voice_to_phase(audio, self.coupling, 2.0).samples
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_same_rate_and_length(self):
        audio = make_pressure_tone(8000.0, 440.0, 0.1, 0.3)
        phase = voice_to_phase(audio, self.coupling, 3.0)
        assert phase.sample_rate == audio.sample_rate
        assert phase.n_samples == audio.n_samples

    def test_wrong_kind_rejected(self):
        phase = SampledTrace(1000.0, np.zeros(10), PHASE)
        with pytest.raises(InputError):
            voice_to_phase(phase, self.coupling, 3.0)

    def test_negative_length_rejected(self):
        audio = SampledTrace(1000.0, np.zeros(10), AUDIO)
        with pytest.raises(InputError):
            voice_to_phase(audio, self.coupling, -1.0)


class TestSynthesizeHeterodyne:
    def test_alpha_zero_gives_constant_unity(self):
        het = synthesize_heterodyne(small_config(reflection_amplitude=0.0),
                                    duration=0.01)
        assert het.kind == HETERODYNE
        np.testing.assert_allclose(het.samples, 1.0, rtol=0, atol=1e-15)

    def test_pure_beat_levels(self):
        # fs / f_if = 16 samples per period, sampling hits the cosine extrema
        het = synthesize_heterodyne(small_config(), duration=0.01)
        assert np.max(het.samples) == pytest.approx(1.04 + 0.4, abs=1e-12)
        assert np.min(het.samples) == pytest.approx(1.04 - 0.4, abs=1e-12)
        assert np.ptp(het.samples) == pytest.approx(0.8, abs=1e-12)

    def test_mean_is_dc_term_over_integer_periods(self):
        # 0.01 s at 25 kHz = 250 whole beat periods
        for alpha in (0.05, 0.2, 0.7):
            het = synthesize_heterodyne(
                small_config(reflection_amplitude=alpha), duration=0.01)
            assert np.mean(het.samples) == pytest.approx(1 + alpha ** 2, rel=1e-6)

    def test_envelope_independent_of_phase_modulation(self):
        rng = np.random.default_rng(3)
        cfg = small_config()
        n = 4000
        t = np.arange(n) / cfg.sample_rate
        mod = np.zeros(n)
        for f0, a in zip(rng.uniform(100, 5000, 8), rng.uniform(0, 0.8, 8)):
            mod += a * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 2 * np.pi))
        mod -= mod.mean()
        phase = SampledTrace(cfg.sample_rate, mod, PHASE)
        het = synthesize_heterodyne(cfg, voice_phase=phase)
        assert np.ptp(het.samples) == pytest.approx(4 * 0.2, rel=0.01)

    def test_noise_seed_is_deterministic(self):
        cfg = small_config(reference_fiber=FiberSpec(length=2306.0),
                           laser=LaserSpec(wavelength=1.55e-6,
                                           white_freq_psd=1256.6,
                                           flicker_coeff=5.68e6))
        a = synthesize_heterodyne(cfg, duration=0.02, noise_seed=42)
        b = synthesize_heterodyne(cfg, duration=0.02, noise_seed=42)
        c = synthesize_heterodyne(cfg, duration=0.02, noise_seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_seed_matches_explicit_noise(self):
        from fibertap import synthesize_system_noise
        cfg = small_config(reference_fiber=FiberSpec(length=2306.0),
                           laser=LaserSpec(wavelength=1.55e-6,
                                           white_freq_psd=1256.6,
                                           flicker_coeff=5.68e6))
        n = int(0.02 * cfg.sample_rate)
        noise = synthesize_system_noise(cfg, n, 42)
        a = synthesize_heterodyne(cfg, noise_phase=noise)
        b = synthesize_heterodyne(cfg, duration=0.02, noise_seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_voice_and_noise_add_in_the_argument(self):
        cfg = small_config()
        n = 1600
        t = np.arange(n) / cfg.sample_rate
        v = SampledTrace(cfg.sample_rate, 0.3 * np.sin(2 * np.pi * 700 * t), PHASE)
        w = SampledTrace(cfg.sample_rate, 0.1 * np.cos(2 * np.pi * 1300 * t), PHASE)
        het = synthesize_heterodyne(cfg, voice_phase=v, noise_phase=w)
        expected = 1.04 + 0.4 * np.cos(
            2 * np.pi * cfg.intermediate_frequency * t + v.samples + w.samples)
        np.testing.assert_allclose(het.samples, expected, atol=1e-12)

    def test_input_validation(self):
        cfg = small_config()
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg)  # nothing to size the trace with
        audio = SampledTrace(cfg.sample_rate, np.zeros(16), AUDIO)
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg, voice_phase=audio)
        wrong_rate = SampledTrace(2 * cfg.sample_rate, np.zeros(16), PHASE)
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg, voice_phase=wrong_rate)
        v = SampledTrace(cfg.sample_rate, np.zeros(16), PHASE)
        w = SampledTrace(cfg.sample_rate, np.zeros(8), PHASE)
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg, voice_phase=v, noise_phase=w)
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg, voice_phase=v, duration=1.0)
        with pytest.raises(InputError):
            synthesize_heterodyne(cfg, noise_phase=w, noise_seed=1)

    def test_static_phase_shifts_the_beat(self):
        cfg0 = small_config()
        cfg1 = small_config(initial_phase=np.pi / 3)
        n = 160
        t = np.arange(n) / cfg0.sample_rate
        h1 = synthesize_heterodyne(cfg1, duration=n / cfg0.sample_rate)
        expected = 1.04 + 0.4 * np.cos(
            2 * np.pi * cfg0.intermediate_frequency * t + np.pi / 3)
        np.testing.assert_allclose(h1.samples, expected, atol=1e-12)
