import csv

import numpy as np
import pytest
from hypothesis import settings

from fibertap import AUDIO, PHASE, BudgetRow, SampledTrace, default_config
from fibertap.fileio import BUDGET_HEADER

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


def read_budget_table(path):
    """The rows of a `budget` CSV table as `BudgetRow`s, read with `csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == BUDGET_HEADER
        return [BudgetRow(*map(float, record)) for record in reader]
