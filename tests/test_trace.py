import numpy as np
import pytest

from fibertap import (
    AUDIO,
    BASEBAND,
    HETERODYNE,
    PHASE,
    SampledTrace,
    decimate_to_audio,
    default_config,
    highpass,
    iq_demodulate,
    spectral_subtract,
    synthesize_heterodyne,
    unwrap_phase,
    voice_to_phase,
)
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
    assert src.flags.writeable and not tr.samples.flags.writeable
    assert not np.shares_memory(src, tr.samples)
    assert not np.shares_memory(tr.with_samples(tr.samples).samples, tr.samples)


def test_handover_freezes_the_array_without_a_copy():
    made = np.array([1.0, 2.0])
    tr = SampledTrace._adopt(1000.0, made, PHASE)
    assert np.shares_memory(tr.samples, made)
    assert not made.flags.writeable
    view = np.arange(6.0)[1:5]  # a step's view of its own buffer
    assert np.shares_memory(SampledTrace._adopt(10.0, view, PHASE).samples, view)


def test_handover_converts_only_a_wrong_dtype():
    made = np.array([1.0, 2.0], dtype=np.float32)
    tr = SampledTrace._adopt(1000.0, made, PHASE)
    assert tr.samples.dtype == np.float64 and not np.shares_memory(tr.samples, made)
    bb = SampledTrace._adopt(10.0, np.array([1.0, 2.0]), BASEBAND)
    assert bb.samples.dtype == np.complex128


def test_handover_is_checked_as_construction_is():
    with pytest.raises(InputError, match="non-finite"):
        SampledTrace._adopt(1000.0, np.array([0.0, np.nan]), PHASE)
    with pytest.raises(InputError, match="requires real samples"):
        SampledTrace._adopt(10.0, np.array([1j, 2.0]), HETERODYNE)
    with pytest.raises(InputError, match="sample_rate"):
        SampledTrace._adopt(0.0, np.array([1.0]), PHASE)


def test_each_step_output_shares_no_memory_with_its_input():
    cfg = default_config()
    fs = cfg.interferometer.sample_rate
    audio = SampledTrace(fs, 0.1 * np.sin(np.arange(20000) * 0.01), AUDIO)
    phase = voice_to_phase(audio, cfg.coupling, cfg.interferometer.sensing_length)
    het = synthesize_heterodyne(cfg.interferometer, phase)
    baseband = decimate_to_audio(het, cfg.demod, cfg.band)
    mixed = iq_demodulate(baseband, cfg.demod)
    unwrapped = unwrap_phase(mixed)
    filtered = highpass(unwrapped, cfg.demod.highpass_cutoff, cfg.demod.filter_order)
    params = cfg.enhance
    frame = params.resolve(filtered.sample_rate)[0]
    quiet = np.zeros(frame // 2 + 1)
    enhanced = spectral_subtract(filtered, quiet, params)
    steps = [(audio, phase), (phase, het), (het, baseband), (baseband, mixed),
             (mixed, unwrapped), (unwrapped, filtered), (filtered, enhanced)]
    for before, after in steps:
        assert not np.shares_memory(after.samples, before.samples)
        assert not after.samples.flags.writeable


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
