"""Command-line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, else the failing error class's ``exit_code``:
2 configuration error, 3 I/O error (also any ``OSError``), 4 numeric or
Nyquist error, 5 noise estimation impossible (no silent frames and no
noise profile).

Each command calls fibertap's functions through their modules
(``config.load_config``), which load on first use, so `--version`, `--help`
and a usage error run no fibertap module but the package's ``__init__``,
this one, `errors` and `_numpy`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager

from . import __version__
from . import chain, config, enhance, fileio, noise, sensitivity, trace
from ._numpy import np
from .errors import ConfigurationError, FiberTapError, InputError

EXIT_IO = 3

#: Each command's input and output file options, by argparse ``dest``
FILE_OPTIONS = {
    "simulate": (("config", "audio"), ("out",)),
    "demod": (("config", "trace_in"), ("out", "phase_csv")),
    "enhance": (("config", "audio_in", "noise_profile", "reference"), ("out", "report")),
    "budget": (("config",), ("out",)),
    "sensitivity": (("config",), ("out",)),
    "print-config": (("config",), ("out",)),
}


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

    cfg, inputs, outputs = command(args, stage)
    manifest = {
        "tool": "fibertap",
        "version": __version__,
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "config_digest": cfg.digest(),
        "inputs": {name: {"path": str(p), "sha256": fileio.sha256_file(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": fileio.sha256_file(p)}
                    for name, p in outputs.items()},
        "stage_timings": timings,
    }
    fileio.write_json(str(args.out) + ".manifest.json", manifest)
    print(f"wrote {args.out}")


def cmd_simulate(args, stage):
    with stage("load"):
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.level_db is not None and not np.isfinite(args.level_db):
            raise ConfigurationError(f"--level-db must be finite, got {args.level_db}")
        cfg = config.load_config(args.config)
        fileio.check_trace_rate(args.out, cfg.interferometer.sample_rate,
                                "interferometer.sample_rate_hz")
        audio = fileio.read_trace(args.audio, kind=trace.AUDIO)
    try:
        het = chain.record(audio, cfg, args.seed, args.level_db, stage)
    except FiberTapError as exc:
        raise type(exc)(f"{args.audio}: {exc}") from exc

    with stage("write"):
        fileio.write_trace(het, args.out)
    return cfg, {"audio": args.audio}, {"heterodyne": args.out}


def cmd_demod(args, stage):
    with stage("load"):
        cfg = config.load_config(args.config)
        for path in filter(None, (args.out, args.phase_csv)):
            fileio.check_trace_rate(path, cfg.demod.audio_rate, "demod.audio_rate_hz")
        het = fileio.read_trace(args.trace_in, kind=trace.HETERODYNE)
    phase, start_time = chain.recover(het, cfg.demod, cfg.band, not args.no_highpass, stage)

    outputs = {"audio": args.out}
    if args.phase_csv:
        with stage("write-phase"):
            fileio.write_trace(phase, args.phase_csv, extra_meta={"start_time_s": start_time})
        outputs["phase"] = args.phase_csv

    with stage("write"):
        fileio.write_trace(phase, args.out, extra_meta={"start_time_s": start_time})
    return cfg, {"heterodyne": args.trace_in}, outputs


def cmd_enhance(args, stage):
    with stage("load"):
        if os.path.splitext(str(args.out))[1].lower() != ".wav":
            raise ConfigurationError(f"--out {args.out} must name a .wav file: "
                                     "enhance writes its audio as WAV")
        cfg = config.load_config(args.config)
        params = cfg.enhance
        noisy = fileio.read_trace(args.audio_in, kind=trace.AUDIO)
        rate = noisy.sample_rate
        fileio.wav_rate(rate, f"the rate of --in {args.audio_in}")
        frame, hop = params.framing(rate)
        n_frames = enhance.frame_count(noisy.n_samples, frame, hop)  # before any window
        params.resolve(rate)  # rejects an overlap too thin for the window
        ref = profile = None
        if args.reference:
            ref = fileio.read_trace(args.reference, kind=trace.AUDIO)
            if ref.sample_rate != rate or ref.n_samples != noisy.n_samples:
                raise InputError("reference must match the input rate and length")
        if args.noise_profile:
            profile = fileio.read_trace(args.noise_profile, kind=trace.AUDIO)
            if profile.sample_rate != rate:
                raise InputError(f"noise profile rate {profile.sample_rate} differs "
                                 f"from input rate {rate}")

    with stage("estimate-noise"):
        if profile is not None:
            noise_spectrum = enhance.estimate_noise_spectrum(
                profile, np.arange(enhance.frame_count(profile.n_samples, frame, hop)), params)
            silent = None
        else:
            silent = enhance.detect_silent_frames(noisy, params)
            noise_spectrum = enhance.estimate_noise_spectrum(noisy, silent, params)

    with stage("subtract"):
        enhanced = enhance.spectral_subtract(noisy, noise_spectrum, params)

    with stage("write"):
        fileio.write_wav(args.out, rate, enhanced.samples)

    report = {
        "frame_length": frame,
        "hop": hop,
        "n_frames": n_frames,
        "n_silent_frames": None if silent is None else int(silent.size),
        "noise_source": "profile" if args.noise_profile else "silent-frames",
        "segmental_snr_before_db": None,
        "segmental_snr_after_db": None,
        "gain_db": None,
    }
    if ref is not None:
        before = enhance.segmental_snr(noisy, ref, frame)
        after = enhance.segmental_snr(enhanced, ref, frame)
        report.update(segmental_snr_before_db=before,
                      segmental_snr_after_db=after,
                      gain_db=after - before)
    report_path = args.report or (str(args.out) + ".report.json")
    fileio.write_json(report_path, report)
    inputs = {"audio": args.audio_in, "noise_profile": args.noise_profile,
              "reference": args.reference}
    return (cfg, {name: path for name, path in inputs.items() if path},
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
        cfg = config.load_config(args.config)

    with stage("sweep"):
        points = _sweep_points(args.sweep_from, args.sweep_to, args.points)
        tap = (cfg.interferometer, cfg.coupling, cfg.band, cfg.noise.snr_threshold)
        if args.sweep == "length":
            rows = noise.detection_limit_vs_length(points, *tap)
        else:
            rows = noise.detection_limit_vs_mismatch(points, *tap,
                                                     include_thermal=args.include_thermal)

    with stage("write"):
        if args.format == "json":
            fileio.write_json(args.out, [r.__dict__ for r in rows])
        else:
            fileio.write_csv_table(args.out, fileio.BUDGET_HEADER, rows)
    return cfg, {}, {"table": args.out}


def cmd_sensitivity(args, stage):
    with stage("load"):
        cfg = config.load_config(args.config)
        # the baseline row reads only scenarios.baseline, so it must be the tap
        base, tap = cfg.raw["scenarios"]["baseline"], cfg.raw["interferometer"]
        for key in ("sensing_length_m", "reflection_amplitude"):
            if base[key] != tap[key]:
                raise ConfigurationError(
                    f"scenarios.baseline.{key} is {base[key]!r} but interferometer.{key} "
                    f"is {tap[key]!r}: the baseline must be the configured tap")

    with stage("compare"):
        scen = cfg.scenarios
        rows = sensitivity.compare_mitigations(scen.baseline, list(scen.variants),
                                               cfg.coupling, scen.test_level_db)

    with stage("write"):
        fileio.write_csv_table(args.out, fileio.MITIGATION_HEADER, rows)
        summary = {
            "test_level_db": scen.test_level_db,
            "baseline": scen.baseline.label,
            "rows": [r.__dict__ for r in rows],
        }
        summary_path = str(args.out) + ".summary.json"
        fileio.write_json(summary_path, summary)
    return cfg, {}, {"table": args.out, "summary": summary_path}


def cmd_print_config(args):
    text = config.dump_config(config.load_config(args.config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _check_files(args):
    """Before any read or write, reject an output that names an input or
    another output (exit 2: the run would overwrite its input, and its
    manifest would give the output's digest as the input's), then one whose
    directory does not exist (exit 3: the run would fail only at that write,
    after the work and the outputs written before it)."""
    def named(dests):
        return [("--in" if dest.endswith("_in") else "--" + dest.replace("_", "-"),
                 getattr(args, dest)) for dest in dests if getattr(args, dest)]

    inputs, outputs = map(named, FILE_OPTIONS[args.command])
    if args.command != "print-config":
        outputs.append(("the manifest", str(args.out) + ".manifest.json"))
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if _same_file(path, other_path):
                raise ConfigurationError(
                    f"{flag} {path} and {other} {other_path} are the same file; "
                    "an output may not overwrite an input or another output")
    for flag, path in outputs:
        folder = os.path.dirname(str(path)) or os.curdir
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{flag} {path}: no directory {folder} to write it in")


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
    p.add_argument("--audio", required=True, help="input trace, WAV or CSV (pressure)")
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
    p.add_argument("--in", dest="audio_in", required=True, help="noisy trace (WAV or CSV)")
    p.add_argument("--noise-profile", default=None,
                   help="noise-only trace (WAV or CSV); skips silent-frame detection")
    p.add_argument("--reference", default=None,
                   help="clean trace (WAV or CSV) for segmental SNR reporting")
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
        _check_files(args)
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
