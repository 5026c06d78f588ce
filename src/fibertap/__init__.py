"""fibertap: heterodyne fiber-tap eavesdropping simulator and DSP toolkit.

The package runs on numpy and PyYAML alone; scipy is only the tests'
reference.

Its submodules load on first use. Importing the package registers each of
them with `importlib.util.LazyLoader` (`fibertap._numpy.lazy_module`) and
runs none, and the public names below are read from their submodules when
first asked for (PEP 562). So `fibertap --version`, `--help` and a usage
error run only this file, `cli`, `errors` and `_numpy`; a command runs the
modules its work calls.
"""

__version__ = "0.1.0"

from . import _numpy

#: Each submodule that loads on first use, with the public names it gives
_EXPORTS = {
    "trace": ("AUDIO", "BASEBAND", "HETERODYNE", "PHASE", "SampledTrace"),
    "model": ("AcousticCoupling", "FiberSpec", "InterferometerConfig", "LaserSpec",
              "mismatch_to_delay", "pressure_to_spl", "spl_to_pressure",
              "synthesize_heterodyne", "voice_to_phase"),
    "noise": ("AudioBand", "BudgetRow", "NoiseBudget", "compute_noise_budget",
              "detection_limit_vs_length", "detection_limit_vs_mismatch",
              "laser_phase_psd_approx", "laser_phase_psd_full", "laser_rms",
              "phase_rms_to_spl", "synthesize_colored_noise", "synthesize_system_noise",
              "system_phase_noise_psd", "thermal_psd", "thermal_rms", "voice_rms_phase"),
    "demod": ("DemodConfig", "decimate_to_audio", "edge_guard", "highpass",
              "iq_demodulate", "resample", "unwrap_phase"),
    "enhance": ("SpectralSubtractParams", "detect_silent_frames", "estimate_noise_spectrum",
                "segmental_snr", "spectral_subtract", "subtract_power_spectrum"),
    "sensitivity": ("MitigationRow", "MitigationScenario", "compare_mitigations",
                    "scenario_voice_rms"),
    "config": ("SimulationConfig", "default_config", "load_config"),
    "chain": ("clean", "record", "recover"),
    "errors": (),
    "fileio": (),
}
_MODULES = {name: _numpy.lazy_module(f"{__name__}.{name}") for name in _EXPORTS}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# `fileio` is reached as `fibertap.fileio`, but `import *` does not bind it
__all__ = sorted([*_HOME, *_MODULES.keys() - {"fileio"}])


def __getattr__(name):
    if name in _MODULES:
        return _MODULES[name]
    if name in _HOME:
        return getattr(_MODULES[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | set(__all__))
