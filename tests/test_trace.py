import numpy as np
import pytest

from fibertap import AUDIO, BASEBAND, HETERODYNE, PHASE, SampledTrace
from fibertap.errors import InputError


def test_basic_construction():
    tr = SampledTrace(1000.0, [0.0, 1.0, 2.0], PHASE)
    assert tr.n_samples == 3
    assert tr.samples.dtype == np.float64


def test_samples_are_immutable():
    tr = SampledTrace(1000.0, [1.0, 2.0], PHASE)
    with pytest.raises(ValueError):
        tr.samples[0] = 9.0


def test_construction_copies_input():
    src = np.array([1.0, 2.0])
    tr = SampledTrace(1000.0, src, PHASE)
    src[0] = 5.0
    assert tr.samples[0] == 1.0


def test_nonfinite_samples_rejected():
    with pytest.raises(InputError):
        SampledTrace(1000.0, [0.0, np.nan], PHASE)
    with pytest.raises(InputError):
        SampledTrace(1000.0, [np.inf, 0.0], AUDIO)


def test_bad_rate_and_kind_rejected():
    with pytest.raises(InputError):
        SampledTrace(0.0, [1.0], PHASE)
    with pytest.raises(InputError):
        SampledTrace(-1.0, [1.0], PHASE)
    with pytest.raises(InputError):
        SampledTrace(1.0, [1.0], "voltage")


def test_complex_only_for_baseband():
    z = np.array([1 + 1j, 2 - 1j])
    bb = SampledTrace(10.0, z, BASEBAND)
    assert bb.samples.dtype == np.complex128
    with pytest.raises(InputError):
        SampledTrace(10.0, z, HETERODYNE)


def test_with_samples_keeps_rate_and_kind():
    tr = SampledTrace(1000.0, [1.0, 2.0], PHASE)
    other = tr.with_samples([3.0, 4.0])
    assert other.sample_rate == tr.sample_rate
    assert other.kind == PHASE


def test_multidimensional_rejected():
    with pytest.raises(InputError):
        SampledTrace(10.0, np.ones((2, 2)), PHASE)
