"""Command-line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, else the failing error class's ``exit_code``:
2 configuration error, 3 I/O error (also any ``OSError``), 4 numeric or
Nyquist error, 5 noise estimation impossible (no silent frames and no
noise profile).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager

from . import __version__
from ._numpy import np
from .config import dump_config, load_config
from .demod import (
    decimate_to_audio,
    edge_guard,
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
from .errors import ConfigurationError, FiberTapError, InputError
from .fileio import (
    BUDGET_HEADER,
    MITIGATION_HEADER,
    check_trace_rate,
    read_trace,
    read_wav,
    sha256_file,
    write_csv_table,
    write_json,
    write_trace,
    write_wav,
)
from .model import spl_to_pressure, synthesize_heterodyne, voice_to_phase
from .noise import (
    detection_limit_vs_length,
    detection_limit_vs_mismatch,
    synthesize_system_noise,
)
from .sensitivity import compare_mitigations
from .trace import AUDIO, HETERODYNE, SampledTrace

EXIT_IO = 3


def _run(command, args):
    """Run a command that writes `args.out`, then its run manifest.

    `command(args, stage)` does the work inside ``with stage(name):`` blocks
    and returns ``(config, inputs, outputs)``, each of the last two mapping a
    name to a path. Each stage's seconds go into ``<out>.manifest.json``
    (a stage that raises is not recorded), and ``wrote <out>`` is printed.
    """
    timings = []

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        yield
        timings.append([name, time.perf_counter() - t0])

    config, inputs, outputs = command(args, stage)
    manifest = {
        "tool": "fibertap",
        "version": __version__,
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "config_digest": config.digest(),
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": sha256_file(p)}
                    for name, p in outputs.items()},
        "stage_timings": timings,
    }
    write_json(str(args.out) + ".manifest.json", manifest)
    print(f"wrote {args.out}")


def cmd_simulate(args, stage):
    with stage("load"):
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.level_db is not None and not np.isfinite(args.level_db):
            raise ConfigurationError(f"--level-db must be finite, got {args.level_db}")
        config = load_config(args.config)
        ifo = config.interferometer
        check_trace_rate(args.out, ifo.sample_rate, "interferometer.sample_rate_hz")
        rate, samples = read_wav(args.audio)

    with stage("prepare-audio"):
        if rate != ifo.sample_rate:
            samples = resample(samples, *resample_ratio(rate, ifo.sample_rate))
        if samples.size < 2:
            raise InputError(f"{args.audio}: simulate needs at least 2 samples at "
                             f"{ifo.sample_rate} S/s, got {samples.size}")
        if args.level_db is not None:
            peak = float(np.max(np.abs(samples)))
            if peak == 0:
                raise InputError("cannot scale a silent input to a sound level")
            scale = spl_to_pressure(args.level_db, config.coupling.spl_reference) / peak
            if not 0 < scale < math.inf:
                raise ConfigurationError(
                    f"--level-db {args.level_db!r} scales {args.audio}'s peak of {peak!r} "
                    f"by {scale!r}; the factor must be finite and > 0")
            samples = samples * scale
        audio = SampledTrace(ifo.sample_rate, samples, AUDIO)

    with stage("voice-to-phase"):
        phase = voice_to_phase(audio, config.coupling, ifo.sensing_length)

    with stage("synthesize"):
        # drawn before `synthesize_heterodyne` makes its record-sized arrays
        noise = (synthesize_system_noise(ifo, phase.n_samples, args.seed,
                                         config.noise.flatten_below_hz)
                 if config.noise.enabled else None)
        het = synthesize_heterodyne(ifo, phase, noise)

    with stage("write"):
        write_trace(het, args.out)
    return config, {"audio": args.audio}, {"heterodyne": args.out}


def cmd_demod(args, stage):
    with stage("load"):
        config = load_config(args.config)
        cfg = config.demod
        for path in filter(None, (args.out, args.phase_csv)):
            check_trace_rate(path, cfg.audio_rate, "demod.audio_rate_hz")
        het = read_trace(args.trace_in, kind=HETERODYNE)
        guard = edge_guard(cfg, het.sample_rate, config.band, het.n_samples,
                           highpass=not args.no_highpass)

    with stage("decimate"):
        baseband = decimate_to_audio(het, cfg, config.band)

    with stage("iq-demodulate"):
        baseband = iq_demodulate(baseband, cfg)

    with stage("unwrap"):
        phase = unwrap_phase(baseband.with_samples(
            baseband.samples[guard:baseband.n_samples - guard]))
    start_time = guard / baseband.sample_rate

    if not args.no_highpass:
        with stage("highpass"):
            phase = highpass(phase, cfg.highpass_cutoff, cfg.filter_order)

    outputs = {"audio": args.out}
    if args.phase_csv:
        with stage("write-phase"):
            write_trace(phase, args.phase_csv, extra_meta={"start_time_s": start_time})
        outputs["phase"] = args.phase_csv

    with stage("write"):
        write_trace(phase, args.out, extra_meta={"start_time_s": start_time})
    return config, {"heterodyne": args.trace_in}, outputs


def cmd_enhance(args, stage):
    with stage("load"):
        config = load_config(args.config)
        params = config.enhance
        rate, samples = read_wav(args.audio_in)
        noisy = SampledTrace(rate, samples, AUDIO)
        frame, hop, _ = params.resolve(rate)
        ref = profile = None
        if args.reference:
            rrate, rsamples = read_wav(args.reference)
            if rrate != rate or rsamples.size != noisy.n_samples:
                raise InputError("reference must match the input rate and length")
            ref = SampledTrace(rrate, rsamples, AUDIO)
        if args.noise_profile:
            prate, psamples = read_wav(args.noise_profile)
            if prate != rate:
                raise InputError(
                    f"noise profile rate {prate} differs from input rate {rate}")
            profile = SampledTrace(prate, psamples, AUDIO)

    with stage("estimate-noise"):
        if profile is not None:
            noise_spectrum = estimate_noise_spectrum(
                profile, np.arange(frame_count(profile.n_samples, frame, hop)), params)
            silent = None
        else:
            silent = detect_silent_frames(noisy, params)
            noise_spectrum = estimate_noise_spectrum(noisy, silent, params)

    with stage("subtract"):
        enhanced = spectral_subtract(noisy, noise_spectrum, params)

    with stage("write"):
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
    if ref is not None:
        before = segmental_snr(noisy, ref, frame)
        after = segmental_snr(enhanced, ref, frame)
        report.update(segmental_snr_before_db=before,
                      segmental_snr_after_db=after,
                      gain_db=after - before)
    report_path = args.report or (str(args.out) + ".report.json")
    write_json(report_path, report)
    inputs = {"audio": args.audio_in, "noise_profile": args.noise_profile,
              "reference": args.reference}
    return (config, {name: path for name, path in inputs.items() if path},
            {"audio": args.out, "report": report_path})


def _sweep_points(start, stop, count):
    """`count` log-spaced sweep values from `start` to `stop`, or `start` alone."""
    if count < 1:
        raise ConfigurationError(f"--points must be at least 1, got {count}")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ConfigurationError(f"--from and --to must be finite, got {start} and {stop}")
    if start <= 0 or stop <= 0:
        raise ConfigurationError(
            f"sweeps are log-spaced, so --from and --to must be > 0, got {start} and {stop}")
    return np.geomspace(start, stop, count)


def cmd_budget(args, stage):
    with stage("load"):
        config = load_config(args.config)

    with stage("sweep"):
        points = _sweep_points(args.sweep_from, args.sweep_to, args.points)
        tap = (config.interferometer, config.coupling, config.band,
               config.noise.snr_threshold)
        if args.sweep == "length":
            rows = detection_limit_vs_length(points, *tap)
        else:
            rows = detection_limit_vs_mismatch(points, *tap,
                                               include_thermal=args.include_thermal)

    with stage("write"):
        if args.format == "json":
            write_json(args.out, [r.__dict__ for r in rows])
        else:
            write_csv_table(args.out, BUDGET_HEADER, rows)
    return config, {}, {"table": args.out}


def cmd_sensitivity(args, stage):
    with stage("load"):
        config = load_config(args.config)
        # the baseline row reads only scenarios.baseline, so it must be the tap
        base, tap = config.raw["scenarios"]["baseline"], config.raw["interferometer"]
        for key in ("sensing_length_m", "reflection_amplitude"):
            if base[key] != tap[key]:
                raise ConfigurationError(
                    f"scenarios.baseline.{key} is {base[key]!r} but interferometer.{key} "
                    f"is {tap[key]!r}: the baseline must be the configured tap")

    with stage("compare"):
        scen = config.scenarios
        rows = compare_mitigations(scen.baseline, list(scen.variants),
                                   config.coupling, scen.test_level_db)

    with stage("write"):
        write_csv_table(args.out, MITIGATION_HEADER, rows)
        summary = {
            "test_level_db": scen.test_level_db,
            "baseline": scen.baseline.label,
            "rows": [r.__dict__ for r in rows],
        }
        summary_path = str(args.out) + ".summary.json"
        write_json(summary_path, summary)
    return config, {}, {"table": args.out, "summary": summary_path}


def cmd_print_config(args):
    text = dump_config(load_config(args.config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demod", help="heterodyne trace -> recovered audio WAV")
    common(p)
    p.add_argument("--in", dest="trace_in", required=True,
                   help="heterodyne trace (WAV or CSV)")
    p.add_argument("--no-highpass", action="store_true",
                   help="skip the audio-band high-pass")
    p.add_argument("--phase-csv", default=None,
                   help="also write the recovered audio-rate phase here, as a trace CSV")
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
        if args.command == "print-config":
            args.func(args)
        else:
            _run(args.func, args)
        return 0
    except FiberTapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
