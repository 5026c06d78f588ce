"""Uniformly sampled time series passed between all pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .errors import InputError

AUDIO = "audio_pressure"
PHASE = "phase"
HETERODYNE = "heterodyne"
BASEBAND = "baseband"

KINDS = (AUDIO, PHASE, HETERODYNE, BASEBAND)


@dataclass(frozen=True, init=False)
class SampledTrace:
    """Immutable 1-D time series with a sample rate and a physical kind.

    Parameters
    ----------
    sample_rate : float
        Samples per second, > 0.
    samples : array_like
        Sample values. Real for every kind except ``baseband``, which is
        complex. The trace holds them frozen (a read-only array). It holds a
        copy, so the caller's array stays writable and independent of it; only
        a fibertap step hands over an array it has just made (`_adopt`), which
        is frozen as it is, not copied.
    kind : str
        One of ``audio_pressure`` [Pa], ``phase`` [rad], ``heterodyne``
        [arbitrary intensity] or ``baseband`` [complex, arbitrary: the
        filtered beat at the audio rate, before or after the mix].
    """

    sample_rate: float
    samples: np.ndarray
    kind: str

    def __init__(self, sample_rate, samples, kind):
        self._fill(sample_rate, np.array(samples), kind)

    @classmethod
    def _adopt(cls, sample_rate, samples, kind):
        """The trace of `samples`, an array the calling step has just made and
        keeps no writable use of: converted only if its dtype is not the
        kind's, then frozen in place, without a copy."""
        trace = cls.__new__(cls)
        trace._fill(sample_rate, samples, kind)
        return trace

    def _fill(self, sample_rate, samples, kind):
        object.__setattr__(self, "sample_rate", sample_rate)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "kind", kind)
        self.__post_init__()

    def __post_init__(self):
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0:
            raise InputError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.kind not in KINDS:
            raise InputError(f"unknown trace kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == BASEBAND:
            arr = np.asarray(self.samples, dtype=np.complex128)
        else:
            if np.iscomplexobj(self.samples):
                raise InputError(f"kind {self.kind!r} requires real samples")
            arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InputError(f"samples must be one-dimensional, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InputError("samples contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    @property
    def n_samples(self) -> int:
        return self.samples.size

    def with_samples(self, samples) -> "SampledTrace":
        """New trace of the same rate and kind with different samples."""
        return SampledTrace(self.sample_rate, samples, self.kind)
