import numpy as np
import pytest
from hypothesis import settings

from fibertap import AUDIO, PHASE, SampledTrace, default_config

# property tests draw the same examples on every run and have no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def cfg():
    return default_config()


def make_tone(fs, f0, duration, amplitude=1.0, kind=PHASE, phase=0.0):
    t = np.arange(int(round(fs * duration))) / fs
    return SampledTrace(fs, amplitude * np.sin(2 * np.pi * f0 * t + phase), kind)


def make_pressure_tone(fs, f0, duration, amplitude):
    return make_tone(fs, f0, duration, amplitude, kind=AUDIO)


def tone_amplitude(samples, fs, f0):
    """Amplitude of the f0 component via quadrature projection."""
    n = samples.size
    t = np.arange(n) / fs
    c = np.exp(-2j * np.pi * f0 * t)
    return 2.0 * np.abs(np.mean(samples * c))


def tone_phase(samples, fs, f0):
    """Phase of the f0 component via quadrature projection."""
    n = samples.size
    t = np.arange(n) / fs
    c = np.exp(-2j * np.pi * f0 * t)
    return np.angle(np.mean(samples * c))
