"""Command-line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, else the failing error class's ``exit_code``:
2 configuration error, 3 I/O error (also any ``OSError``), 4 numeric or
Nyquist error, 5 noise estimation impossible (no silent frames and no
noise profile).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import __version__
from .config import load_config
from .demod import (
    decimate_to_audio,
    edge_guard,
    guard_trim,
    highpass,
    iq_demodulate,
    resample,
    resample_ratio,
    unwrap_phase,
)
from .enhance import (
    detect_silent_frames,
    estimate_noise_spectrum,
    frame_count,
    segmental_snr,
    spectral_subtract,
)
from .errors import FiberTapError, InputError
from .fileio import (
    BUDGET_HEADER,
    MITIGATION_HEADER,
    read_trace,
    read_wav,
    sha256_file,
    write_csv_table,
    write_json,
    write_trace,
    write_wav,
)
from .model import spl_to_pressure, synthesize_heterodyne, voice_to_phase
from .noise import detection_limit_vs_length, detection_limit_vs_mismatch
from .sensitivity import compare_mitigations
from .trace import AUDIO, HETERODYNE, SampledTrace

EXIT_OK = 0
EXIT_IO = 3


class _Stages:
    """Accumulates [stage, seconds] timings for the run manifest.

    ``with stages("load"): ...`` times one stage; a stage that raises is
    not recorded.
    """

    def __init__(self):
        self.timings = []

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        yield
        self.timings.append([name, time.perf_counter() - t0])


def _write_manifest(out_path, command, config, seed, inputs, outputs, stages):
    manifest = {
        "tool": "fibertap",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_digest": config.digest() if config is not None else None,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                    for name, p in outputs.items()},
        "stage_timings": stages.timings,
    }
    path = str(out_path) + ".manifest.json"
    write_json(path, manifest)
    return path


def cmd_simulate(args) -> int:
    stages = _Stages()
    with stages("load"):
        config = load_config(args.config)
        ifo = config.interferometer
        rate, samples = read_wav(args.audio)

    with stages("prepare-audio"):
        if rate != ifo.sample_rate:
            samples = resample(samples, *resample_ratio(rate, ifo.sample_rate))
        if args.level_db is not None:
            peak = float(np.max(np.abs(samples)))
            if peak == 0:
                raise InputError("cannot scale a silent input to a sound level")
            samples = samples * (spl_to_pressure(args.level_db,
                                                 config.coupling.spl_reference) / peak)
        audio = SampledTrace(ifo.sample_rate, samples, AUDIO)

    with stages("voice-to-phase"):
        phase = voice_to_phase(audio, config.coupling, ifo.sensing_length)

    with stages("synthesize"):
        noise_on = config.noise.enabled and not args.no_noise
        het = synthesize_heterodyne(
            ifo, voice_phase=phase,
            noise_seed=args.seed if noise_on else None,
            flatten_below=config.noise.flatten_below_hz)

    with stages("write"):
        write_trace(het, args.out)
    _write_manifest(args.out, "simulate", config, args.seed,
                    {"audio": args.audio}, {"heterodyne": args.out}, stages)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_demod(args) -> int:
    stages = _Stages()
    with stages("load"):
        config = load_config(args.config)
        het = read_trace(args.trace_in, kind=HETERODYNE)
        flags = {name: getattr(args, name)
                 for name in ("beat_frequency", "highpass_cutoff", "audio_rate")}
        cfg = replace(config.demod, **{k: v for k, v in flags.items() if v is not None})
        transient, guard = edge_guard(cfg, het.sample_rate, config.band,
                                      None if args.no_highpass else het.n_samples)

    with stages("iq-demodulate"):
        phase = unwrap_phase(iq_demodulate(het, cfg))

    trim = guard_trim(phase.n_samples, guard)
    if trim:
        phase = SampledTrace(phase.sample_rate,
                             phase.samples[trim:phase.n_samples - trim],
                             phase.kind)
    else:
        print(f"warning: record of {phase.n_samples} samples is not longer than "
              f"3 x the {guard}-sample edge guard; keeping "
              f"{min(transient, phase.n_samples)} FIR transient samples at each edge",
              file=sys.stderr)
    start_time = trim / het.sample_rate

    if not args.no_highpass:
        with stages("highpass"):
            phase = highpass(phase, cfg.highpass_cutoff, cfg.filter_order)

    if args.phase_csv:
        with stages("write-phase"):
            write_trace(phase, args.phase_csv, extra_meta={"start_time_s": start_time})

    with stages("decimate"):
        audio = decimate_to_audio(phase, cfg.audio_rate, config.band)

    with stages("write"):
        write_trace(audio, args.out, extra_meta={"start_time_s": start_time})

    outputs = {"audio": args.out}
    if args.phase_csv:
        outputs["phase"] = args.phase_csv
    _write_manifest(args.out, "demod", config, None,
                    {"heterodyne": args.trace_in}, outputs, stages)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_enhance(args) -> int:
    stages = _Stages()
    with stages("load"):
        config = load_config(args.config)
        params = config.enhance
        rate, samples = read_wav(args.audio_in)
        noisy = SampledTrace(rate, samples, AUDIO)
        frame, hop, _ = params.resolve(rate)

    with stages("estimate-noise"):
        if args.noise_profile:
            prate, psamples = read_wav(args.noise_profile)
            if prate != rate:
                raise InputError(
                    f"noise profile rate {prate} differs from input rate {rate}")
            profile = SampledTrace(prate, psamples, AUDIO)
            noise_spectrum = estimate_noise_spectrum(
                profile, np.arange(frame_count(profile.n_samples, frame, hop)), params)
            silent = None
        else:
            silent = detect_silent_frames(noisy, params)
            noise_spectrum = estimate_noise_spectrum(noisy, silent, params)

    with stages("subtract"):
        enhanced = spectral_subtract(noisy, noise_spectrum, params)

    with stages("write"):
        write_wav(args.out, rate, enhanced.samples)

    report = {
        "frame_length": frame,
        "hop": hop,
        "n_frames": frame_count(noisy.n_samples, frame, hop),
        "n_silent_frames": None if silent is None else int(silent.size),
        "noise_source": "profile" if args.noise_profile else "silent-frames",
        "segmental_snr_before_db": None,
        "segmental_snr_after_db": None,
        "gain_db": None,
    }
    if args.reference:
        rrate, rsamples = read_wav(args.reference)
        if rrate != rate or rsamples.size != noisy.n_samples:
            raise InputError("reference must match the input rate and length")
        ref = SampledTrace(rrate, rsamples, AUDIO)
        before = segmental_snr(noisy, ref, frame)
        after = segmental_snr(enhanced, ref, frame)
        report.update(segmental_snr_before_db=before,
                      segmental_snr_after_db=after,
                      gain_db=after - before)
    report_path = args.report or (str(args.out) + ".report.json")
    write_json(report_path, report)

    inputs = {"audio": args.audio_in}
    if args.noise_profile:
        inputs["noise_profile"] = args.noise_profile
    if args.reference:
        inputs["reference"] = args.reference
    _write_manifest(args.out, "enhance", config, None, inputs,
                    {"audio": args.out, "report": report_path}, stages)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_budget(args) -> int:
    stages = _Stages()
    with stages("load"):
        config = load_config(args.config)

    with stages("sweep"):
        points = np.geomspace(args.sweep_from, args.sweep_to, args.points) \
            if args.points > 1 else np.array([args.sweep_from])
        if args.sweep == "length":
            rows = detection_limit_vs_length(
                points, config.coupling, config.interferometer.sensing_length,
                config.band, config.interferometer,
                snr_threshold=config.noise.snr_threshold)
        else:
            rows = detection_limit_vs_mismatch(
                points, config.interferometer.laser, config.coupling,
                config.interferometer.sensing_length, config.band,
                config.interferometer, include_thermal=args.include_thermal,
                snr_threshold=config.noise.snr_threshold)

    with stages("write"):
        if args.format == "json":
            write_json(args.out, [r.__dict__ for r in rows])
        else:
            write_csv_table(args.out, BUDGET_HEADER, rows)
    _write_manifest(args.out, "budget", config, None, {}, {"table": args.out}, stages)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    stages = _Stages()
    with stages("load"):
        config = load_config(args.config)

    with stages("compare"):
        scen = config.scenarios
        rows = compare_mitigations(scen.baseline, list(scen.variants),
                                   config.coupling, scen.test_level_db)

    with stages("write"):
        write_csv_table(args.out, MITIGATION_HEADER, rows)
        summary = {
            "test_level_db": scen.test_level_db,
            "baseline": scen.baseline.label,
            "rows": [r.__dict__ for r in rows],
        }
        summary_path = str(args.out) + ".summary.json"
        write_json(summary_path, summary)
    _write_manifest(args.out, "sensitivity", config, None, {},
                    {"table": args.out, "summary": summary_path}, stages)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_print_config(args) -> int:
    from .config import dump_config
    config = load_config(args.config)
    text = dump_config(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibertap",
        description="Fiber-tap eavesdropping simulator and DSP toolkit")
    parser.add_argument("--version", action="version", version=f"fibertap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--out", required=True, help="output file")

    p = sub.add_parser("simulate", help="audio -> phase -> heterodyne trace")
    common(p)
    p.add_argument("--audio", required=True, help="input WAV (pressure)")
    p.add_argument("--seed", type=int, default=0, help="noise synthesis seed")
    p.add_argument("--level-db", type=float, default=None,
                   help="rescale input so its peak equals this dB SPL")
    p.add_argument("--no-noise", action="store_true", help="disable phase noise")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demod", help="heterodyne trace -> recovered audio WAV")
    common(p)
    p.add_argument("--in", dest="trace_in", required=True,
                   help="heterodyne trace (WAV or CSV)")
    p.add_argument("--beat-frequency", type=float, default=None)
    p.add_argument("--highpass-cutoff", type=float, default=None)
    p.add_argument("--audio-rate", type=float, default=None)
    p.add_argument("--no-highpass", action="store_true",
                   help="skip the audio-band high-pass")
    p.add_argument("--phase-csv", default=None,
                   help="also write the full-rate phase trace here")
    p.set_defaults(func=cmd_demod)

    p = sub.add_parser("enhance", help="spectral-subtraction noise reduction")
    common(p)
    p.add_argument("--in", dest="audio_in", required=True, help="noisy WAV")
    p.add_argument("--noise-profile", default=None,
                   help="noise-only WAV; skips silent-frame detection")
    p.add_argument("--reference", default=None,
                   help="clean WAV for segmental SNR reporting")
    p.add_argument("--report", default=None, help="JSON report path")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("budget", help="detection-limit sweep table")
    common(p)
    p.add_argument("--sweep", choices=("length", "mismatch"), required=True)
    p.add_argument("--from", dest="sweep_from", type=float, default=10.0)
    p.add_argument("--to", dest="sweep_to", type=float, default=10000.0)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--include-thermal", action="store_true",
                   help="add the thermal term to the mismatch budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("sensitivity", help="mitigation comparison table")
    common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("print-config", help="dump the resolved configuration")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FiberTapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
