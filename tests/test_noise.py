import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, signal, special

from fibertap import (
    AudioBand,
    LaserSpec,
    NoiseBudget,
    compute_noise_budget,
    default_config,
    detection_limit_vs_length,
    detection_limit_vs_mismatch,
    laser_phase_psd_approx,
    laser_phase_psd_full,
    laser_rms,
    mismatch_to_delay,
    phase_rms_to_spl,
    synthesize_colored_noise,
    synthesize_system_noise,
    system_phase_noise_psd,
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
from fibertap.noise import _sici

CFG = default_config()
WAVELENGTH = 1.55e-6
BAND = CFG.band


def fiber(length, **overrides):
    return replace(CFG.interferometer.detect_fiber, length=length, **overrides)


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


class TestSici:
    GRID = np.concatenate([np.geomspace(1e-8, 1e8, 161),
                           [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]])

    def test_matches_scipy_on_a_log_grid(self):
        # above 2 _sici returns Si - pi/2 + cos x / x and Ci - sin x / x
        for x in self.GRID.tolist():
            si, ci = _sici(x)
            if x > 2.0:
                si, ci = si + np.pi / 2 - np.cos(x) / x, ci + np.sin(x) / x
            ref_si, ref_ci = special.sici(x)
            assert si == pytest.approx(ref_si, rel=1e-14, abs=0.0), x
            assert ci == pytest.approx(ref_ci, rel=1e-14, abs=0.0), x

    def test_remainders_keep_their_precision(self):
        # Si - pi/2 + cos x/x = -(f - 1/x) cos x - g sin x and
        # Ci - sin x/x = (f - 1/x) sin x - g cos x, with the auxiliary
        # functions' asymptotic series (Abramowitz & Stegun 5.2.34-35) written
        # without their leading terms; at x >= 1e3 the next terms are < 1e-16
        # of the O(1/x^2) remainders, which scipy's Si and Ci cannot resolve
        for x in np.geomspace(1e3, 1e8, 41).tolist():
            df = -2 / x ** 3 + 24 / x ** 5 - 720 / x ** 7
            g = 1 / x ** 2 - 6 / x ** 4 + 120 / x ** 6 - 5040 / x ** 8
            si, ci = _sici(x)
            assert abs(si - (-df * np.cos(x) - g * np.sin(x))) <= 2e-15 / x ** 2, x
            assert abs(ci - (df * np.sin(x) - g * np.cos(x))) <= 2e-15 / x ** 2, x


class TestLaserRms:
    def test_zero_delay(self):
        assert laser_rms(laser(), 0.0, BAND, form="approx") == 0.0
        assert laser_rms(laser(), 0.0, BAND, form="full") == 0.0

    def test_linear_in_delay(self):
        tau0 = 2.5e-7
        assert laser_rms(laser(), 2 * tau0, BAND, form="approx") == \
            2.0 * laser_rms(laser(), tau0, BAND, form="approx")

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

    # the full form's values before its panels were summed in blocks
    @pytest.mark.parametrize("mismatch,expected", [
        (1e3, 0.03040074360036204), (1e6, 4.411052078887523), (1e9, 3.874110924991266),
        (1e10, 3.8750778537420483),
    ])
    def test_full_form_values_kept(self, mismatch, expected):
        tau0 = mismatch_to_delay(mismatch, 1.468)
        assert laser_rms(laser(), tau0, BAND, form="full") == \
            pytest.approx(expected, rel=1e-12, abs=0.0)

    # 50-digit values of the same closed form (mpmath's si and ci) at delays
    # of ~1e8 and ~1e10 half periods across the band, past any panel rule
    @pytest.mark.parametrize("mismatch,expected", [
        (1e12, 3.8751998212085477), (1e14, 3.8751991598536253),
    ])
    def test_full_form_exact_at_long_delays(self, mismatch, expected):
        tau0 = mismatch_to_delay(mismatch, 1.468)
        assert laser_rms(laser(), tau0, BAND, form="full") == \
            pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_full_form_peak_bounded(self):
        # ~290 000 half periods at 3e9 m: nothing held may grow with them
        laser_rms(laser(), 1e-6, BAND, form="full")  # imports
        tau0 = mismatch_to_delay(3e9, 1.468)
        tracemalloc.start()
        try:
            laser_rms(laser(), tau0, BAND, form="full")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

    def test_full_form_tends_to_its_mean_at_a_long_delay(self):
        # sin^2(pi f tau0) = (1 - cos(a f))/2 with a = 2 pi tau0, so the
        # variance is the mean term below less the integral of
        # cos(a f) (S0/f^2 + k/f^3) / (2 pi^2); by parts, with the bracket
        # positive and falling, that is at most 2 (S0/f1^2 + k/f1^3) / a
        # over 2 pi^2. At 1e12 m a is 3.1e4 s: ~1e8 half periods in the band
        s0, k = laser().white_freq_psd, laser().flicker_coeff
        f1, f2 = BAND.f_low, BAND.f_high
        a = 2 * np.pi * mismatch_to_delay(1e12, 1.468)
        mean = (s0 * (1 / f1 - 1 / f2) + k * (1 / f1 ** 2 - 1 / f2 ** 2) / 2) / (2 * np.pi ** 2)
        bound = (s0 / f1 ** 2 + k / f1 ** 3) / (np.pi ** 2 * a)
        var = laser_rms(laser(), a / (2 * np.pi), BAND, form="full") ** 2
        assert abs(var - mean) <= bound < 1e-5 * mean

    def test_full_form_meets_the_approx_form_at_its_edge(self):
        # below a f_high = 1e-8 the full form is the approx one; just above
        # it the closed form must agree to rounding, since the two PSDs part
        # by (pi f tau0)^2 / 3 < 1e-16 there
        edge = 1e-8 / (2 * np.pi * BAND.f_high)
        for tau0 in (edge * (1 - 1e-9), edge * (1 + 1e-9), edge * 3):
            assert laser_rms(laser(), tau0, BAND, form="full") == pytest.approx(
                laser_rms(laser(), tau0, BAND, form="approx"), rel=1e-14, abs=0.0), tau0

    @pytest.mark.parametrize("tau0,band", [
        (np.inf, BAND), (1e150, BAND), (1e-3, AudioBand(1e-320, 1e4)),
    ], ids=["infinite-delay", "phase-squared-overflows", "subnormal-phase"])
    def test_delay_phase_past_the_float_range_rejected(self, tau0, band):
        with pytest.raises(DomainError, match="delay phase 2 pi tau0 f"):
            laser_rms(laser(), tau0, band, form="full")

    def test_unknown_form_rejected(self):
        with pytest.raises(ConfigurationError):
            laser_rms(laser(), 1e-7, BAND, form="exact")

    @pytest.mark.parametrize("form", ["approx", "full"])
    def test_negative_delay_rejected(self, form):
        with pytest.raises(DomainError, match="tau0 must be >= 0"):
            laser_rms(laser(), -1e-9, BAND, form=form)


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
    FLAT = 10.0  # noise.flatten_below_hz of the packaged config

    def test_zero_psd_gives_zero_trace(self):
        tr = synthesize_colored_noise(lambda f: np.zeros_like(f), 4096, self.FS, 1, self.FLAT)
        assert np.all(tr.samples == 0.0)

    def test_deterministic_per_seed(self):
        psd = lambda f: 1e-9 / f
        a = synthesize_colored_noise(psd, 2 ** 14, self.FS, 7, self.FLAT)
        b = synthesize_colored_noise(psd, 2 ** 14, self.FS, 7, self.FLAT)
        c = synthesize_colored_noise(psd, 2 ** 14, self.FS, 8, self.FLAT)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_flat_psd_variance_parseval(self):
        s0 = 1e-6
        n = 2 ** 20
        tr = synthesize_colored_noise(lambda f: np.full_like(f, s0), n, self.FS, 2, self.FLAT)
        expected = s0 * (self.FS / 2 - 10.0)
        assert np.var(tr.samples) == pytest.approx(expected, rel=0.05)

    def test_welch_matches_one_over_f_target(self):
        c = 7.4e-10
        psd = lambda f: c / f
        n = 2 ** 18
        tr = synthesize_colored_noise(psd, n, self.FS, 3, self.FLAT)
        f, pxx = signal.welch(tr.samples, fs=self.FS, nperseg=4096)
        band = (f >= 100.0) & (f <= 10e3)
        err_db = 10 * np.log10(pxx[band] / psd(f[band]))
        assert abs(np.mean(err_db)) < 1.5

    def test_different_seeds_decorrelated(self):
        psd = lambda f: 1e-9 / f
        n = 2 ** 20
        a = synthesize_colored_noise(psd, n, self.FS, 1, self.FLAT).samples
        b = synthesize_colored_noise(psd, n, self.FS, 2, self.FLAT).samples
        r = np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b))
        assert abs(r) < 0.05

    def test_nonfinite_psd_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize_colored_noise(lambda f: np.full_like(f, np.nan), 64, self.FS, 1, self.FLAT)
        with pytest.raises(SynthesisError):
            synthesize_colored_noise(lambda f: -np.ones_like(f), 64, self.FS, 1, self.FLAT)

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            synthesize_colored_noise(lambda f: f, 1, self.FS, 1, self.FLAT)

    def test_zero_mean(self):
        tr = synthesize_colored_noise(lambda f: 1e-6 / f, 2 ** 14, self.FS, 9, self.FLAT)
        assert abs(np.mean(tr.samples)) < 1e-12 * np.std(tr.samples) * 2 ** 7


class TestSystemNoise:
    FS = 400e3
    N = 2 ** 16
    FLAT = 10.0  # noise.flatten_below_hz of the packaged config

    @settings(max_examples=25)
    @given(length=st.floats(1.0, 20e3), mismatch=st.floats(0.0, 10e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_periodogram_matches_system_psd_in_log_bands(self, length, mismatch, seed):
        # thermal noise of the detecting arm plus laser noise through the
        # arm mismatch, which is zero when the reference arm is balanced; the
        # 1 m sensing fiber fits the shortest arm and does not enter the PSD
        ifo = replace(
            CFG.interferometer, laser=laser(), detect_fiber=fiber(length),
            reference_length=2.0 * length + mismatch,
            sensing_length=1.0, sample_rate=self.FS)
        x = synthesize_system_noise(ifo, self.N, seed, self.FLAT).samples
        f = np.fft.rfftfreq(self.N, 1.0 / self.FS)[1:-1]
        pxx = 2.0 * np.abs(np.fft.rfft(x)[1:-1]) ** 2 / (self.FS * self.N)
        ratio = pxx / system_phase_noise_psd(ifo, f)
        # each bin of the one-sided periodogram is its target times an
        # exponential variate of mean 1, so the mean ratio over K bins has
        # standard deviation 1/sqrt(K); a band may stray by five of them
        edges = np.geomspace(200.0, 160e3, 11)
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = ratio[(f >= lo) & (f < hi)]
            assert abs(np.mean(band) - 1.0) <= 5.0 / np.sqrt(band.size), (lo, band.size)


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
        b = compute_noise_budget(cfg.interferometer, cfg.coupling, cfg.band, 1.0)
        assert b.laser_rms == 0.0  # balanced arms
        assert b.thermal_rms > 0
        assert b.total_rms == b.thermal_rms

    def test_compute_budget_unbalanced(self, cfg):
        unbalanced = replace(cfg.interferometer, reference_length=2306.0)
        b = compute_noise_budget(unbalanced, cfg.coupling, cfg.band, 1.0)
        assert b.laser_rms > 0
        assert b.total_rms == pytest.approx(
            np.hypot(b.thermal_rms, b.laser_rms), rel=1e-12)
        assert b.detection_limit_db > 30.0

    def test_laser_term_is_the_full_form_that_synthesis_draws(self, cfg):
        ifo = replace(cfg.interferometer, reference_length=2.0 * 1103.0 + 5000.0)
        b = compute_noise_budget(ifo, cfg.coupling, cfg.band, 1.0)
        tau0 = ifo.delay_mismatch()
        assert b.laser_rms == laser_rms(ifo.laser, tau0, cfg.band, form="full")
        assert b.laser_rms < laser_rms(ifo.laser, tau0, cfg.band, form="approx")
        # the band integral of the PSD `synthesize_system_noise` draws
        var, _ = integrate.quad(lambda f: system_phase_noise_psd(ifo, f),
                                cfg.band.f_low, cfg.band.f_high, limit=400,
                                epsrel=1e-11, epsabs=0.0)
        assert b.total_rms == pytest.approx(np.sqrt(var), rel=1e-8)

    def test_system_psd_is_sum_of_terms(self, cfg):
        ifo = cfg.interferometer
        f = np.geomspace(100, 10e3, 5)
        # balanced arms: laser term vanishes
        np.testing.assert_allclose(
            system_phase_noise_psd(ifo, f),
            thermal_psd(ifo.detect_fiber, ifo.laser.wavelength, f), rtol=1e-15)
        unbalanced = replace(ifo, reference_length=2306.0)
        expected = thermal_psd(ifo.detect_fiber, ifo.laser.wavelength, f) \
            + laser_phase_psd_full(ifo.laser, unbalanced.delay_mismatch(), f)
        np.testing.assert_allclose(system_phase_noise_psd(unbalanced, f),
                                   expected, rtol=1e-15)


def sweep_args(cfg, snr_threshold=1.0):
    return cfg.interferometer, cfg.coupling, cfg.band, snr_threshold


class TestDetectionLimits:
    def test_limit_nondecreasing_in_length(self, cfg):
        lengths = np.geomspace(10, 1e4, 40)
        rows = detection_limit_vs_length(lengths, *sweep_args(cfg))
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

    def test_thermal_anchor_30db_at_3km(self, cfg):
        rows = detection_limit_vs_length([3000.0], *sweep_args(cfg))
        assert rows[0].limit_db == pytest.approx(30.0, abs=0.5)

    def test_loglog_slope_of_thermal_rms(self, cfg):
        lengths = np.geomspace(10, 1e4, 50)
        rows = detection_limit_vs_length(lengths, *sweep_args(cfg))
        x = np.log([r.x_value for r in rows])
        y = np.log([r.thermal_rms for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-3)

    def test_length_rows_are_the_thermal_closed_form_exactly(self, cfg):
        # a balanced tap of each length: tau0 is exactly 0, so the laser
        # column is 0.0 and the total is the thermal RMS to the bit
        ifo = cfg.interferometer
        for length in np.geomspace(3.0, 3000.0, 31):
            row, = detection_limit_vs_length([length], *sweep_args(cfg, 2.0))
            th = thermal_rms(replace(ifo.detect_fiber, length=length),
                             ifo.laser.wavelength, cfg.band)
            assert (row.x_value, row.thermal_rms, row.laser_rms, row.total_rms) == \
                (length, th, 0.0, th)
            assert row.limit_db == phase_rms_to_spl(2.0 * th, cfg.coupling,
                                                    ifo.sensing_length)

    def test_length_sweep_reads_the_sensing_length_of_the_tap(self, cfg):
        longer = replace(cfg.interferometer, sensing_length=30.0)
        base, = detection_limit_vs_length([3000.0], *sweep_args(cfg))
        row, = detection_limit_vs_length([3000.0], longer, cfg.coupling, cfg.band, 1.0)
        # ten times the fiber under the sound: 20 dB lower limit
        assert base.limit_db - row.limit_db == pytest.approx(20.0, abs=1e-9)

    def test_length_below_the_sensing_fiber_rejected(self, cfg):
        # the tap's own check: a detecting arm shorter than its sensing
        # fiber (3 m by default), 0 included, is no tap
        for length in (0.0, 1.0, 2.999):
            with pytest.raises(ConfigurationError, match="sensing_length"):
                detection_limit_vs_length([10.0, length], *sweep_args(cfg))
        row, = detection_limit_vs_length([3.0], *sweep_args(cfg))
        assert row.thermal_rms > 0

    def test_limit_nondecreasing_in_mismatch(self, cfg):
        mm = np.geomspace(1, 1e4, 40)
        rows = detection_limit_vs_mismatch(mm, *sweep_args(cfg))
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

    def test_loglog_slope_of_laser_rms(self, cfg):
        mm = np.geomspace(1, 1e4, 50)
        rows = detection_limit_vs_mismatch(mm, *sweep_args(cfg))
        x = np.log([r.x_value for r in rows])
        y = np.log([r.laser_rms for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-3)

    def test_limit_at_100m_near_60db(self, cfg):
        rows = detection_limit_vs_mismatch([100.0], *sweep_args(cfg))
        assert 50.0 <= rows[0].limit_db <= 70.0
        assert rows[0].limit_db == pytest.approx(60.0, abs=1e-6)

    def test_mismatch_sweep_reads_laser_fiber_and_sensing_length_of_the_tap(self, cfg):
        ifo = cfg.interferometer
        base, = detection_limit_vs_mismatch([100.0], *sweep_args(cfg))
        quieter = replace(ifo, laser=replace(ifo.laser, white_freq_psd=0.0,
                                             flicker_coeff=0.0))
        # with no other noise its limit would be -inf dB
        row, = detection_limit_vs_mismatch([100.0], quieter, cfg.coupling, cfg.band, 1.0,
                                           include_thermal=True)
        assert row.laser_rms == 0.0 and row.total_rms == row.thermal_rms > 0
        slower = replace(ifo, detect_fiber=replace(ifo.detect_fiber, refractive_index=2.936))
        row, = detection_limit_vs_mismatch([100.0], slower, cfg.coupling, cfg.band, 1.0)
        assert row.laser_rms == pytest.approx(2.0 * base.laser_rms, rel=1e-12)
        longer = replace(ifo, sensing_length=30.0)
        row, = detection_limit_vs_mismatch([100.0], longer, cfg.coupling, cfg.band, 1.0)
        assert base.limit_db - row.limit_db == pytest.approx(20.0, abs=1e-9)

    def test_include_thermal_raises_limit(self, cfg):
        base = detection_limit_vs_mismatch([100.0], *sweep_args(cfg))[0]
        both = detection_limit_vs_mismatch([100.0], *sweep_args(cfg),
                                           include_thermal=True)[0]
        assert both.total_rms > base.total_rms
        assert both.limit_db > base.limit_db
        assert both.total_rms == pytest.approx(
            np.hypot(both.thermal_rms, both.laser_rms), rel=1e-12)

    def test_zero_mismatch_limit_is_rejected(self, cfg):
        # no noise at all: a limit of -inf dB, once written as a table row
        with pytest.raises(DomainError, match=r"^mismatch 0\.0: the detection limit of "
                                              r"1\.0 x 0\.0 rad RMS noise is -inf dB SPL"):
            detection_limit_vs_mismatch([0.0], *sweep_args(cfg))
        row, = detection_limit_vs_mismatch([0.0], *sweep_args(cfg), include_thermal=True)
        assert row.laser_rms == 0.0 and np.isfinite(row.limit_db)

    def test_empty_and_negative_inputs_rejected(self, cfg):
        with pytest.raises(InputError):
            detection_limit_vs_length([], *sweep_args(cfg))
        with pytest.raises(ConfigurationError):
            detection_limit_vs_length([-5.0], *sweep_args(cfg))
        with pytest.raises(InputError):
            detection_limit_vs_mismatch([], *sweep_args(cfg))
        with pytest.raises(InputError):
            detection_limit_vs_mismatch([-5.0], *sweep_args(cfg))

    def test_voice_rms_round_trip(self, cfg):
        rms = voice_rms_phase(47.0, cfg.coupling, 3.0)
        assert phase_rms_to_spl(rms, cfg.coupling, 3.0) == pytest.approx(47.0, abs=1e-9)
