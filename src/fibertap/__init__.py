"""fibertap: heterodyne fiber-tap eavesdropping simulator and DSP toolkit.

The package runs on numpy and PyYAML alone; scipy is only the tests'
reference.
"""

__version__ = "0.1.0"

from .trace import AUDIO, BASEBAND, HETERODYNE, PHASE, SampledTrace
from .model import (
    AcousticCoupling,
    FiberSpec,
    InterferometerConfig,
    LaserSpec,
    mismatch_to_delay,
    pressure_to_spl,
    spl_to_pressure,
    synthesize_heterodyne,
    voice_to_phase,
)
from .noise import (
    AudioBand,
    BudgetRow,
    NoiseBudget,
    compute_noise_budget,
    detection_limit_vs_length,
    detection_limit_vs_mismatch,
    laser_phase_psd_approx,
    laser_phase_psd_full,
    laser_rms,
    phase_rms_to_spl,
    synthesize_colored_noise,
    synthesize_system_noise,
    system_phase_noise_psd,
    thermal_psd,
    thermal_rms,
    voice_rms_phase,
)
from .demod import (
    DemodConfig,
    decimate_to_audio,
    edge_guard,
    highpass,
    iq_demodulate,
    resample,
    unwrap_phase,
)
from .enhance import (
    SpectralSubtractParams,
    detect_silent_frames,
    estimate_noise_spectrum,
    segmental_snr,
    spectral_subtract,
    subtract_power_spectrum,
)
from .sensitivity import (
    MitigationRow,
    MitigationScenario,
    compare_mitigations,
    scenario_voice_rms,
)
from .config import SimulationConfig, default_config, load_config
from .chain import record, recover

__all__ = [name for name in dir() if not name.startswith("_")]
