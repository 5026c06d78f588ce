import numpy as np
import pytest
from scipy import integrate, signal

from fibertap import (
    AudioBand,
    FiberSpec,
    LaserSpec,
    NoiseBudget,
    compute_noise_budget,
    detection_limit_vs_length,
    detection_limit_vs_mismatch,
    laser_phase_psd_approx,
    laser_phase_psd_full,
    laser_rms,
    mismatch_to_delay,
    phase_rms_to_spl,
    synthesize_colored_noise,
    thermal_psd,
    thermal_rms,
    voice_rms_phase,
)
from fibertap.errors import (
    ConfigurationError,
    DomainError,
    InputError,
    SynthesisError,
)
from fibertap.model import BOLTZMANN, SPEED_OF_LIGHT

WAVELENGTH = 1.55e-6
BAND = AudioBand()


def fiber(length, **overrides):
    return FiberSpec(length=length, **overrides)


def laser(s0=1256.6370614359173, k=5680294.361677727):
    return LaserSpec(wavelength=WAVELENGTH, white_freq_psd=s0, flicker_coeff=k)


class TestThermalPsd:
    def test_one_over_f(self):
        f = fiber(1000.0)
        assert 2.0 * thermal_psd(f, WAVELENGTH, 2000.0) == thermal_psd(f, WAVELENGTH, 1000.0)

    def test_linear_in_length(self):
        assert thermal_psd(fiber(2000.0), WAVELENGTH, 1e3) == \
            2.0 * thermal_psd(fiber(1000.0), WAVELENGTH, 1e3)

    def test_direct_substitution_oracle(self):
        # independent arrangement of the same density at L = 1000 m, f = 1 kHz
        f = fiber(1000.0)
        expected = (2 * np.pi * 1.468 / WAVELENGTH) ** 2 \
            * (2 * BOLTZMANN * 293.15 * 1000.0 * 0.01) / (3 * np.pi * 454.0) / 1000.0
        assert thermal_psd(f, WAVELENGTH, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(5)
        base = fiber(700.0)
        s_ref = thermal_psd(base, WAVELENGTH, 430.0)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(0.1, 10.0)
            scaled = thermal_psd(fiber(700.0 * a), WAVELENGTH, 430.0 * b)
            assert scaled == pytest.approx((a / b) * s_ref, rel=1e-12)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(DomainError):
            thermal_psd(fiber(1.0), WAVELENGTH, 0.0)
        with pytest.raises(DomainError):
            thermal_psd(fiber(1.0), WAVELENGTH, np.array([10.0, -1.0]))

    def test_vectorized(self):
        f = np.array([500.0, 1000.0])
        out = thermal_psd(fiber(10.0), WAVELENGTH, f)
        assert out.shape == (2,)
        assert out[0] == 2.0 * out[1]


class TestThermalRms:
    def test_zero_length(self):
        assert thermal_rms(fiber(0.0), WAVELENGTH, BAND) == 0.0

    def test_sqrt_scaling_in_length(self):
        assert thermal_rms(fiber(4000.0), WAVELENGTH, BAND) == \
            2.0 * thermal_rms(fiber(1000.0), WAVELENGTH, BAND)

    def test_closed_form_vs_quadrature(self):
        f = fiber(1000.0)
        closed = thermal_rms(f, WAVELENGTH, BAND)
        var, _ = integrate.quad(lambda x: thermal_psd(f, WAVELENGTH, x),
                                BAND.f_low, BAND.f_high, epsrel=1e-12, epsabs=0.0)
        assert closed == pytest.approx(np.sqrt(var), rel=1e-9)


class TestLaserPsd:
    def test_zero_delay_full_form(self):
        for f in (100.0, 1e3, 1e4):
            assert laser_phase_psd_full(laser(), 0.0, f) == 0.0

    def test_transfer_function_null(self):
        # sin(pi f tau0) vanishes when f * tau0 = 1
        tau0 = 1e-4
        f = 1.0 / tau0
        full = laser_phase_psd_full(laser(), tau0, f)
        approx = laser_phase_psd_approx(laser(), tau0, f)
        assert full <= approx * 1e-25

    def test_full_close_to_approx_at_small_delay(self):
        tau0 = 0.489e-6  # 100 m mismatch at n = 1.468
        f = 1e4
        full = laser_phase_psd_full(laser(), tau0, f)
        approx = laser_phase_psd_approx(laser(), tau0, f)
        assert full == pytest.approx(approx, rel=1e-3)

    def test_quadratic_in_delay(self):
        tau0 = 3e-7
        f = np.geomspace(100, 1e4, 7)
        ratio = laser_phase_psd_approx(laser(), 2 * tau0, f) \
            / laser_phase_psd_approx(laser(), tau0, f)
        np.testing.assert_allclose(ratio, 4.0, rtol=1e-9)

    def test_approx_upper_bounds_full(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            tau0 = rng.uniform(1e-8, 1e-4)
            f = rng.uniform(1.0, 2e4)
            assert laser_phase_psd_full(laser(), tau0, f) <= \
                laser_phase_psd_approx(laser(), tau0, f)

    def test_ratio_tends_to_one(self):
        tau0 = 1e-8
        f = 1e-4 / tau0  # f * tau0 = 1e-4
        ratio = laser_phase_psd_full(laser(), tau0, f) \
            / laser_phase_psd_approx(laser(), tau0, f)
        assert abs(ratio - 1.0) < 1e-7

    def test_negative_delay_rejected(self):
        with pytest.raises(DomainError):
            laser_phase_psd_full(laser(), -1e-9, 100.0)
        with pytest.raises(DomainError):
            laser_phase_psd_approx(laser(), -1e-9, 100.0)


class TestLaserRms:
    def test_zero_delay(self):
        assert laser_rms(laser(), 0.0, BAND, form="approx") == 0.0
        assert laser_rms(laser(), 0.0, BAND, form="full") == 0.0

    def test_linear_in_delay(self):
        tau0 = 2.5e-7
        assert laser_rms(laser(), 2 * tau0, BAND) == \
            2.0 * laser_rms(laser(), tau0, BAND)

    def test_approx_closed_form_vs_quadrature(self):
        tau0 = 4.896720917508872e-07
        closed = laser_rms(laser(), tau0, BAND, form="approx")
        var, _ = integrate.quad(lambda f: laser_phase_psd_approx(laser(), tau0, f),
                                BAND.f_low, BAND.f_high, epsrel=1e-12, epsabs=0.0)
        assert closed == pytest.approx(np.sqrt(var), rel=1e-9)

    def test_full_within_half_percent_of_approx_at_100m(self):
        tau0 = mismatch_to_delay(100.0, 1.468)
        full = laser_rms(laser(), tau0, BAND, form="full")
        approx = laser_rms(laser(), tau0, BAND, form="approx")
        assert full == pytest.approx(approx, rel=5e-3)

    @pytest.mark.parametrize("band", [BAND, AudioBand(20.0, 20000.0)],
                             ids=["100Hz-10kHz", "20Hz-20kHz"])
    def test_full_equals_adaptive_quadrature(self, band):
        # reference: scipy's quad on each half period 1/(2 tau0) of
        # sin^2(pi f tau0), so no adaptive run sees more than one lobe
        for mismatch in np.geomspace(1e-3, 1e6, 40):
            tau0 = mismatch_to_delay(mismatch, 1.468)
            half = 0.5 / tau0
            inner = np.arange(np.floor(band.f_low / half) + 1, np.ceil(band.f_high / half))
            edges = [band.f_low, *(inner * half), band.f_high]
            var = sum(integrate.quad(lambda f: laser_phase_psd_full(laser(), tau0, f),
                                     a, b, epsrel=1e-13, epsabs=0.0, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:]))
            assert laser_rms(laser(), tau0, band, form="full") == \
                pytest.approx(np.sqrt(var), rel=1e-12, abs=0.0), mismatch

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigurationError):
            laser_rms(laser(), 1e-7, BAND, form="exact")


class TestMismatchToDelay:
    def test_zero(self):
        assert mismatch_to_delay(0.0, 1.468) == 0.0

    def test_kilometer_scale_stays_under_ten_microseconds(self):
        tau0 = mismatch_to_delay(2000.0, 1.468)
        assert tau0 == pytest.approx(9.79e-6, rel=1e-3)
        assert tau0 < 10e-6

    def test_hundred_meters(self):
        expected = 1.468 * 100.0 / SPEED_OF_LIGHT
        assert mismatch_to_delay(100.0, 1.468) == pytest.approx(expected, rel=1e-15)
        assert mismatch_to_delay(100.0, 1.468) == pytest.approx(4.8967e-7, rel=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            mismatch_to_delay(-1.0, 1.468)


class TestColoredNoise:
    FS = 400e3

    def test_zero_psd_gives_zero_trace(self):
        tr = synthesize_colored_noise(lambda f: np.zeros_like(f), 4096, self.FS, 1)
        assert np.all(tr.samples == 0.0)

    def test_deterministic_per_seed(self):
        psd = lambda f: 1e-9 / f
        a = synthesize_colored_noise(psd, 2 ** 14, self.FS, 7)
        b = synthesize_colored_noise(psd, 2 ** 14, self.FS, 7)
        c = synthesize_colored_noise(psd, 2 ** 14, self.FS, 8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_flat_psd_variance_parseval(self):
        s0 = 1e-6
        n = 2 ** 20
        tr = synthesize_colored_noise(lambda f: np.full_like(f, s0), n, self.FS, 2)
        expected = s0 * (self.FS / 2 - 10.0)
        assert np.var(tr.samples) == pytest.approx(expected, rel=0.05)

    def test_welch_matches_one_over_f_target(self):
        c = 7.4e-10
        psd = lambda f: c / f
        n = 2 ** 18
        tr = synthesize_colored_noise(psd, n, self.FS, 3)
        f, pxx = signal.welch(tr.samples, fs=self.FS, nperseg=4096)
        band = (f >= 100.0) & (f <= 10e3)
        err_db = 10 * np.log10(pxx[band] / psd(f[band]))
        assert abs(np.mean(err_db)) < 1.5

    def test_different_seeds_decorrelated(self):
        psd = lambda f: 1e-9 / f
        n = 2 ** 20
        a = synthesize_colored_noise(psd, n, self.FS, 1).samples
        b = synthesize_colored_noise(psd, n, self.FS, 2).samples
        r = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
        assert abs(r) < 0.05

    def test_nonfinite_psd_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize_colored_noise(lambda f: np.full_like(f, np.nan), 64, self.FS, 1)
        with pytest.raises(SynthesisError):
            synthesize_colored_noise(lambda f: -np.ones_like(f), 64, self.FS, 1)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            synthesize_colored_noise(lambda f: f, 1, self.FS, 1)

    def test_zero_mean(self):
        tr = synthesize_colored_noise(lambda f: 1e-6 / f, 2 ** 14, self.FS, 9)
        assert abs(np.mean(tr.samples)) < 1e-12 * np.std(tr.samples) * 2 ** 7


class TestNoiseBudget:
    def test_rss_invariant_enforced(self):
        with pytest.raises(ConfigurationError):
            NoiseBudget(band=BAND, thermal_rms=1.0, laser_rms=1.0,
                        total_rms=2.5, detection_limit_db=10.0)

    def test_valid_budget(self):
        b = NoiseBudget(band=BAND, thermal_rms=3e-5, laser_rms=4e-5,
                        total_rms=5e-5, detection_limit_db=20.0)
        assert b.total_rms == pytest.approx(np.hypot(b.thermal_rms, b.laser_rms))

    def test_compute_budget_default_config(self, cfg):
        b = compute_noise_budget(cfg.interferometer, cfg.coupling, cfg.band)
        assert b.laser_rms == 0.0  # balanced arms
        assert b.thermal_rms > 0
        assert b.total_rms == b.thermal_rms

    def test_compute_budget_unbalanced(self, cfg):
        from fibertap import InterferometerConfig
        ifo = cfg.interferometer
        unbalanced = InterferometerConfig(
            laser=ifo.laser, detect_fiber=ifo.detect_fiber,
            reference_fiber=FiberSpec(length=2306.0),
            sensing_length=ifo.sensing_length,
            intermediate_frequency=ifo.intermediate_frequency,
            sample_rate=ifo.sample_rate)
        b = compute_noise_budget(unbalanced, cfg.coupling, cfg.band)
        assert b.laser_rms > 0
        assert b.total_rms == pytest.approx(
            np.hypot(b.thermal_rms, b.laser_rms), rel=1e-12)
        assert b.detection_limit_db > 30.0

    def test_system_psd_is_sum_of_terms(self, cfg):
        from fibertap import InterferometerConfig, system_phase_noise_psd
        ifo = cfg.interferometer
        f = np.geomspace(100, 10e3, 5)
        # balanced arms: laser term vanishes
        np.testing.assert_allclose(
            system_phase_noise_psd(ifo, f),
            thermal_psd(ifo.detect_fiber, ifo.laser.wavelength, f), rtol=1e-15)
        unbalanced = InterferometerConfig(
            laser=ifo.laser, detect_fiber=ifo.detect_fiber,
            reference_fiber=FiberSpec(length=2306.0),
            sensing_length=ifo.sensing_length,
            intermediate_frequency=ifo.intermediate_frequency,
            sample_rate=ifo.sample_rate)
        expected = thermal_psd(ifo.detect_fiber, ifo.laser.wavelength, f) \
            + laser_phase_psd_full(ifo.laser, unbalanced.delay_mismatch(), f)
        np.testing.assert_allclose(system_phase_noise_psd(unbalanced, f),
                                   expected, rtol=1e-15)


class TestDetectionLimits:
    def test_limit_nondecreasing_in_length(self, cfg):
        lengths = np.geomspace(10, 1e4, 40)
        rows = detection_limit_vs_length(lengths, cfg.coupling, 3.0, cfg.band,
                                         cfg.interferometer)
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

    def test_thermal_anchor_30db_at_3km(self, cfg):
        rows = detection_limit_vs_length([3000.0], cfg.coupling, 3.0, cfg.band,
                                         cfg.interferometer)
        assert rows[0].limit_db == pytest.approx(30.0, abs=0.5)

    def test_loglog_slope_of_thermal_rms(self, cfg):
        lengths = np.geomspace(10, 1e4, 50)
        rows = detection_limit_vs_length(lengths, cfg.coupling, 3.0, cfg.band,
                                         cfg.interferometer)
        x = np.log([r.x_value for r in rows])
        y = np.log([r.thermal_rms for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_limit_nondecreasing_in_mismatch(self, cfg):
        mm = np.geomspace(1, 1e4, 40)
        rows = detection_limit_vs_mismatch(mm, cfg.interferometer.laser, cfg.coupling,
                                           3.0, cfg.band, cfg.interferometer)
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

    def test_loglog_slope_of_laser_rms(self, cfg):
        mm = np.geomspace(1, 1e4, 50)
        rows = detection_limit_vs_mismatch(mm, cfg.interferometer.laser, cfg.coupling,
                                           3.0, cfg.band, cfg.interferometer)
        x = np.log([r.x_value for r in rows])
        y = np.log([r.laser_rms for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-3)

    def test_limit_at_100m_near_60db(self, cfg):
        rows = detection_limit_vs_mismatch([100.0], cfg.interferometer.laser,
                                           cfg.coupling, 3.0, cfg.band,
                                           cfg.interferometer)
        assert 50.0 <= rows[0].limit_db <= 70.0
        assert rows[0].limit_db == pytest.approx(60.0, abs=1e-6)

    def test_include_thermal_raises_limit(self, cfg):
        base = detection_limit_vs_mismatch([100.0], cfg.interferometer.laser,
                                           cfg.coupling, 3.0, cfg.band,
                                           cfg.interferometer)[0]
        both = detection_limit_vs_mismatch([100.0], cfg.interferometer.laser,
                                           cfg.coupling, 3.0, cfg.band,
                                           cfg.interferometer,
                                           include_thermal=True)[0]
        assert both.total_rms > base.total_rms
        assert both.limit_db > base.limit_db
        assert both.total_rms == pytest.approx(
            np.hypot(both.thermal_rms, both.laser_rms), rel=1e-12)

    def test_zero_mismatch_limit_is_minus_inf(self, cfg):
        rows = detection_limit_vs_mismatch([0.0], cfg.interferometer.laser,
                                           cfg.coupling, 3.0, cfg.band,
                                           cfg.interferometer)
        assert rows[0].limit_db == -np.inf

    def test_empty_and_negative_inputs_rejected(self, cfg):
        with pytest.raises(InputError):
            detection_limit_vs_length([], cfg.coupling, 3.0, cfg.band,
                                      cfg.interferometer)
        with pytest.raises(InputError):
            detection_limit_vs_length([-5.0], cfg.coupling, 3.0, cfg.band,
                                      cfg.interferometer)
        with pytest.raises(InputError):
            detection_limit_vs_mismatch([], cfg.interferometer.laser, cfg.coupling,
                                        3.0, cfg.band, cfg.interferometer)

    def test_voice_rms_round_trip(self, cfg):
        rms = voice_rms_phase(47.0, cfg.coupling, 3.0)
        assert phase_rms_to_spl(rms, cfg.coupling, 3.0) == pytest.approx(47.0, abs=1e-9)
