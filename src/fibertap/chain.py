"""The chain as the three calls `simulate`, `demod` and `enhance` run between
their file reads and writes; the CLI times each named `stage` of its manifest."""

from contextlib import nullcontext

# The steps are called through their modules, so a wrapper set on a module
# attribute (as the benchmark's per-layer tracer sets) is the one that runs;
# the chain joins `model` to `noise`, which `model` may not import.
from . import demod, enhance, model, noise
from ._numpy import np
from .errors import ConfigurationError, InputError
from .trace import SampledTrace


def record(audio, config, seed, level_db=None, stage=nullcontext):
    """The heterodyne record of the voice `audio`, an ``audio_pressure``
    trace in Pa as `read_trace` gives it, on `config`'s tap: resampled,
    scaled to a peak of `level_db` dB SPL if given, with noise drawn from
    `seed` if enabled. Errors name no file."""
    ifo = config.interferometer
    with stage("prepare-audio"):
        samples = audio.samples
        if audio.sample_rate != ifo.sample_rate:
            samples = demod.resample(samples,
                                     *demod.resample_ratio(audio.sample_rate, ifo.sample_rate))
        if samples.size < 2:
            raise InputError(f"simulate needs at least 2 samples at "
                             f"{ifo.sample_rate} S/s, got {samples.size}")
        if level_db is not None:
            peak = float(max(np.max(samples), -np.min(samples)))
            if peak == 0:
                raise InputError("cannot scale a silent input to a sound level")
            scale = model.spl_to_pressure(level_db, config.coupling.spl_reference) / peak
            if not 0 < scale < np.inf:
                raise ConfigurationError(
                    f"--level-db {level_db!r} scales the input's peak of {peak!r} "
                    f"by {scale!r}; the factor must be finite and > 0")
            if samples is audio.samples:  # the input is frozen: scale into a new array
                samples = samples * scale
            else:
                samples *= scale
        # the input as it is, or the array made here handed over
        voice = audio if samples is audio.samples else \
            SampledTrace._adopt(ifo.sample_rate, samples, audio.kind)

    with stage("voice-to-phase"):
        phase = model.voice_to_phase(voice, config.coupling, ifo.sensing_length)
        del voice, samples  # the phase is all the rest reads

    with stage("synthesize"):
        # drawn before `synthesize_heterodyne` makes its record-sized arrays
        noise_phase = (noise.synthesize_system_noise(ifo, phase.n_samples, seed,
                                                     config.noise.flatten_below_hz)
                       if config.noise.enabled else None)
        return model.synthesize_heterodyne(ifo, phase, noise_phase)


def recover(het, demod_cfg, band, highpass, stage=nullcontext):
    """The phase recovered from `het`, after `edge_guard`'s checks, and the
    ``start_time_s`` of its first sample once the guard is trimmed."""
    with stage("decimate"):
        guard = demod.edge_guard(demod_cfg, het.sample_rate, band, het.n_samples,
                                 highpass=highpass)
        baseband = demod.decimate_to_audio(het, demod_cfg, band)

    with stage("iq-demodulate"):
        baseband = demod.iq_demodulate(baseband, demod_cfg)

    with stage("unwrap"):
        phase = demod.unwrap_phase(SampledTrace._adopt(
            baseband.sample_rate, baseband.samples[guard:baseband.n_samples - guard],
            baseband.kind))

    if highpass:
        with stage("highpass"):
            phase = demod.highpass(phase, demod_cfg.highpass_cutoff, demod_cfg.filter_order)
    return phase, guard / baseband.sample_rate


def clean(noisy, params, profile=None, reference=None, stage=nullcontext):
    """`noisy` with its stationary noise spectrally subtracted, and the report
    `enhance` writes. The noise spectrum is the mean over every frame of
    `profile` if given, else over the silent frames of `noisy`; a `reference`
    gives the segmental SNRs before and after. The frames (`params.resolve`)
    and the rates and lengths are checked before the first stage."""
    rate = noisy.sample_rate
    frame, hop, n_frames, _ = params.resolve(rate, noisy.n_samples)
    if reference is not None and (reference.sample_rate != rate
                                  or reference.n_samples != noisy.n_samples):
        raise InputError("reference must match the input rate and length")
    if profile is not None and profile.sample_rate != rate:
        raise InputError(f"noise profile rate {profile.sample_rate} differs "
                         f"from input rate {rate}")

    with stage("estimate-noise"):
        if profile is not None:
            every = np.arange(params.resolve(rate, profile.n_samples)[2])
            noise_spectrum = enhance.estimate_noise_spectrum(profile, every, params)
            silent = None
        else:
            silent = enhance.detect_silent_frames(noisy, params)
            noise_spectrum = enhance.estimate_noise_spectrum(noisy, silent, params)

    with stage("subtract"):
        enhanced = enhance.spectral_subtract(noisy, noise_spectrum, params)

    report = dict(frame_length=frame, hop=hop, n_frames=n_frames,
                  n_silent_frames=None if silent is None else int(silent.size),
                  noise_source="silent-frames" if profile is None else "profile",
                  segmental_snr_before_db=None, segmental_snr_after_db=None, gain_db=None)
    if reference is not None:
        before, after = (enhance.segmental_snr(x, reference, frame) for x in (noisy, enhanced))
        report.update(segmental_snr_before_db=before, segmental_snr_after_db=after,
                      gain_db=after - before)
    return enhanced, report
