"""Exception hierarchy shared across the toolkit.

Each class carries the CLI's exit code for it in ``exit_code``.
"""


class FiberTapError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 4


class ConfigurationError(FiberTapError, ValueError):
    """Invalid configuration value, type invariant, or config file."""

    exit_code = 2


class NyquistError(ConfigurationError):
    """A carrier or cutoff frequency violates the sampling theorem."""

    exit_code = 4


class InputError(FiberTapError, ValueError):
    """Rejected input data (wrong kind, shape, length, or non-finite samples)."""

    exit_code = 2


class DomainError(FiberTapError, ValueError):
    """Function argument outside its mathematical domain (e.g. f <= 0)."""


class SynthesisError(FiberTapError):
    """Noise synthesis failed (non-finite or negative target PSD in band)."""


class EstimationError(FiberTapError):
    """Noise spectrum estimation failed (no silent frames available)."""

    exit_code = 5


class FileFormatError(FiberTapError):
    """A data file could not be parsed (bad WAV/CSV structure)."""

    exit_code = 3
