from dataclasses import replace

import numpy as np
import pytest

from fibertap import (
    MitigationScenario,
    compare_mitigations,
    default_config,
    scenario_voice_rms,
)
from fibertap.errors import ConfigurationError

COUPLING = replace(default_config().coupling, sensitivity=0.0717)


def scenario(label="s", length=3.0, scale=1.0, alpha=0.2):
    return MitigationScenario(label=label, sensing_length=length,
                              bulk_modulus_scale=scale, reflection_amplitude=alpha)


class TestTypes:
    def test_scenario_bounds(self):
        with pytest.raises(ConfigurationError):
            scenario("x", length=-1.0)
        with pytest.raises(ConfigurationError):
            scenario("x", length=1.0, scale=0.5)
        with pytest.raises(ConfigurationError):
            scenario("x", length=1.0, alpha=2.0)


class TestCompareMitigations:
    def test_baseline_only_single_zero_row(self):
        rows = compare_mitigations(scenario("base"), [], COUPLING, 70.0)
        assert len(rows) == 1
        assert rows[0].delta_db_vs_baseline == 0.0
        assert rows[0].carrier_delta_db == 0.0

    def test_identical_variant_is_zero_delta(self):
        rows = compare_mitigations(scenario("base"), [scenario("same")], COUPLING, 70.0)
        assert rows[1].delta_db_vs_baseline == pytest.approx(0.0, abs=1e-12)

    def test_three_to_one_meter(self):
        rows = compare_mitigations(scenario("base", length=3.0),
                                   [scenario("short", length=1.0)], COUPLING, 70.0)
        assert rows[1].delta_db_vs_baseline == pytest.approx(
            20.0 * np.log10(1.0 / 3.0), abs=1e-9)
        assert rows[1].delta_db_vs_baseline == pytest.approx(-9.54, abs=0.01)

    def test_stiffening_factor_ten(self):
        rows = compare_mitigations(scenario("base"),
                                   [scenario("stiff", scale=10.0)], COUPLING, 70.0)
        assert rows[1].delta_db_vs_baseline == pytest.approx(-20.0, abs=1e-9)

    def test_multiplicative_composition(self):
        base = scenario("base")
        l_only = scenario("l", length=1.0)
        m_only = scenario("m", scale=10.0)
        both = scenario("lm", length=1.0, scale=10.0)
        rows = compare_mitigations(base, [l_only, m_only, both], COUPLING, 70.0)
        combined = rows[1].delta_db_vs_baseline + rows[2].delta_db_vs_baseline
        assert rows[3].delta_db_vs_baseline == pytest.approx(combined, abs=1e-9)

    def test_apc_reduces_carrier_not_phase(self):
        rows = compare_mitigations(scenario("base", alpha=0.2),
                                   [scenario("apc", alpha=0.0025)], COUPLING, 70.0)
        assert rows[1].delta_db_vs_baseline == pytest.approx(0.0, abs=1e-12)
        assert rows[1].carrier_delta_db == pytest.approx(
            20.0 * np.log10(0.0025 / 0.2), abs=1e-9)

    def test_zero_length_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_mitigations(scenario("base", length=0.0), [], COUPLING, 70.0)

    def test_rms_matches_linear_model(self):
        s = scenario("x", length=2.0, scale=4.0)
        got = scenario_voice_rms(s, COUPLING, 60.0)
        pressure = 2e-5 * 10 ** 3.0
        expected = COUPLING.sensitivity / 4.0 * 2.0 * pressure / np.sqrt(2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_level_scales_rms_not_delta(self):
        rows60 = compare_mitigations(scenario("b"), [scenario("v", length=1.0)],
                                     COUPLING, 60.0)
        rows80 = compare_mitigations(scenario("b"), [scenario("v", length=1.0)],
                                     COUPLING, 80.0)
        assert rows80[1].signal_rms_rad == pytest.approx(
            10.0 * rows60[1].signal_rms_rad, rel=1e-12)
        assert rows80[1].delta_db_vs_baseline == pytest.approx(
            rows60[1].delta_db_vs_baseline, abs=1e-12)
