"""Command-line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 success, else the failing error class's ``exit_code``:
2 configuration error, 3 I/O error (also any ``OSError``), 4 numeric or
Nyquist error, 5 noise estimation impossible (no silent frames and no
noise profile). A non-zero exit leaves every output as it was: a command writes
each file of `OUTPUTS` to a staging file, which `_run` renames once all are written.

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
from contextlib import contextmanager, suppress

from . import __version__
from . import chain, config, fileio, noise, sensitivity, trace
from ._numpy import np
from .errors import ConfigurationError, FiberTapError

#: Each command's input files but ``--config``: (name in the run manifest, option dest)
INPUTS = {"simulate": (("audio", "audio"),), "demod": (("heterodyne", "trace_in"),),
          "enhance": (("audio", "audio_in"), ("noise_profile", "noise_profile"),
                      ("reference", "reference"))}

#: Every file each command writes, in the order `_run` commits them: (name,
#: dest, suffix) for option `dest` plus `suffix` (enhance's report without
#: ``--report``: ``<out>.report.json``). The manifest lists all but sidecars and itself.
MANIFEST = ("manifest", "out", ".manifest.json")
OUTPUTS = {
    "simulate": (("heterodyne", "out", ""), ("sidecar", "out", ".meta.json"), MANIFEST),
    "demod": (("audio", "out", ""), ("sidecar", "out", ".meta.json"),
              ("phase", "phase_csv", ""), ("sidecar", "phase_csv", ".meta.json"), MANIFEST),
    "enhance": (("audio", "out", ""), ("report", "report", ""), MANIFEST),
    "budget": (("table", "out", ""), MANIFEST),
    "sensitivity": (("table", "out", ""), ("summary", "out", ".summary.json"), MANIFEST),
    "print-config": (("config", "out", ""),),
}


def _flag(dest):
    return "--in" if dest.endswith("_in") else "--" + dest.replace("_", "-")


def _outputs(args):
    """((name, dest), error label, path) of each file of `OUTPUTS` that `args` name."""
    files = []
    for name, dest, suffix in OUTPUTS[args.command]:
        key = name, dest
        if dest == "report" and not args.report:
            dest, suffix = "out", ".report.json"
        if getattr(args, dest):
            label = (f"the sidecar of {_flag(dest)}" if name == "sidecar"
                     else f"the {name}" if suffix else _flag(dest))
            files.append((key, label, str(getattr(args, dest)) + suffix))
    return files


def _run(command, args):
    """Run `command(args, stage, to)`, which works in ``with stage(name):``
    blocks, writes each file of `_outputs` to its staging file ``to[name,
    dest]`` and returns the config; write the manifest, with the seconds of
    each stage that returned; rename each staging file onto its output, in
    `OUTPUTS`' order. An exception removes the staging files instead."""
    timings, files, to = [], _outputs(args), {}

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        yield
        timings.append([name, time.perf_counter() - t0])

    try:
        for key, _, path in files:
            to[key] = fileio.staging_file(path)
        cfg = command(args, stage, to)
        if ("manifest", "out") in to:
            inputs = [(name, getattr(args, dest)) for name, dest in INPUTS.get(args.command, ())]
            fileio.write_json(to["manifest", "out"], {
                "tool": "fibertap", "version": __version__, "command": args.command,
                "args": {k: v for k, v in vars(args).items() if k != "func"},
                "config_digest": cfg.digest(),
                "inputs": {name: {"path": path, "sha256": fileio.sha256_file(path)}
                           for name, path in inputs if path},
                "outputs": {key[0]: {"path": path, "sha256": fileio.sha256_file(to[key])}
                            for key, _, path in files if key[0] not in ("sidecar", "manifest")},
                "stage_timings": timings})
        for key, _, path in files:
            os.replace(to[key], os.path.realpath(path))
    except FiberTapError as exc:  # an error names the output, not its staging file
        text = str(exc)
        for key, _, path in files:
            text = text.replace(to.get(key, path), path)
        raise type(exc)(text) from exc
    finally:
        for tmp in to.values():
            with suppress(FileNotFoundError):
                os.unlink(tmp)
    if args.out:
        print(f"wrote {args.out}")


def cmd_simulate(args, stage, to):
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
        fileio.write_trace(het, to["heterodyne", "out"])
        fileio.write_sidecar(to["sidecar", "out"], het)
    return cfg


def cmd_demod(args, stage, to):
    with stage("load"):
        if args.phase_csv and os.path.splitext(args.phase_csv)[1].lower() != ".csv":
            raise ConfigurationError(f"--phase-csv {args.phase_csv} must name a .csv file: "
                                     "demod writes the phase there as a trace CSV")
        cfg = config.load_config(args.config)
        for path in filter(None, (args.out, args.phase_csv)):
            fileio.check_trace_rate(path, cfg.demod.audio_rate, "demod.audio_rate_hz")
        het = fileio.read_trace(args.trace_in, kind=trace.HETERODYNE)
    phase, start_time = chain.recover(het, cfg.demod, cfg.band, not args.no_highpass, stage)

    if args.phase_csv:
        with stage("write-phase"):
            fileio.write_trace(phase, to["phase", "phase_csv"])
            fileio.write_sidecar(to["sidecar", "phase_csv"], phase, start_time_s=start_time)
    with stage("write"):
        fileio.write_trace(phase, to["audio", "out"])
        fileio.write_sidecar(to["sidecar", "out"], phase, start_time_s=start_time)
    return cfg


def cmd_enhance(args, stage, to):
    with stage("load"):
        if os.path.splitext(str(args.out))[1].lower() != ".wav":
            raise ConfigurationError(f"--out {args.out} must name a .wav file: "
                                     "enhance writes its audio as WAV")
        cfg = config.load_config(args.config)
        noisy = fileio.read_trace(args.audio_in, kind=trace.AUDIO)
        fileio.wav_rate(noisy.sample_rate, f"the rate of --in {args.audio_in}")
        reference, profile = (path and fileio.read_trace(path, kind=trace.AUDIO)
                              for path in (args.reference, args.noise_profile))
    enhanced, report = chain.clean(noisy, cfg.enhance, profile, reference, stage)

    with stage("write"):
        fileio.write_wav(to["audio", "out"], noisy.sample_rate, enhanced.samples)
    fileio.write_json(to["report", "report"], report)
    return cfg


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


def cmd_budget(args, stage, to):
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
            fileio.write_json(to["table", "out"], [r.__dict__ for r in rows])
        else:
            fileio.write_csv_table(to["table", "out"], fileio.BUDGET_HEADER, rows)
    return cfg


def cmd_sensitivity(args, stage, to):
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
        fileio.write_csv_table(to["table", "out"], fileio.MITIGATION_HEADER, rows)
        fileio.write_json(to["summary", "out"], {
            "test_level_db": scen.test_level_db, "baseline": scen.baseline.label,
            "rows": [r.__dict__ for r in rows]})
    return cfg


def cmd_print_config(args, stage, to):
    cfg = config.load_config(args.config)
    if args.out:
        fileio.write_utf8(to["config", "out"], config.dump_config(cfg))
    else:
        sys.stdout.write(config.dump_config(cfg))
    return cfg


def _same_file(a, b):  # by path, symlink or, where both exist, hard link
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _check_files(args):
    """Before any read or write, reject an output that names an input or
    another output (exit 2: the run would overwrite its input, and its
    manifest would give the output's digest as the input's), then one that
    is a directory or in none (exit 3: the write would fail after the work)."""
    dests = ["config"] + [dest for _, dest in INPUTS.get(args.command, ())]
    inputs = [(_flag(dest), getattr(args, dest)) for dest in dests if getattr(args, dest)]
    outputs = [(label, path) for _, label, path in _outputs(args)]
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if _same_file(path, other_path):
                raise ConfigurationError(
                    f"{flag} {path} and {other} {other_path} are the same file; "
                    "an output may not overwrite an input or another output")
    for flag, path in outputs:
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{flag} {path}: no directory {folder} to write it in")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path}: a directory, not a file to write")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibertap", description="Fiber-tap eavesdropping simulator and DSP toolkit")
    parser.add_argument("--version", action="version", version=f"fibertap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", required=out_required, help="output file")

    p = sub.add_parser("simulate", help="audio -> phase -> heterodyne trace")
    common(p)
    p.add_argument("--audio", required=True, help="input trace, WAV or CSV (pressure)")
    p.add_argument("--seed", type=int, default=0, help="noise synthesis seed")
    p.add_argument("--level-db", type=float, help="rescale input so its peak equals this dB SPL")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("demod", help="heterodyne trace -> recovered audio WAV")
    common(p)
    p.add_argument("--in", dest="trace_in", required=True, help="heterodyne trace (WAV or CSV)")
    p.add_argument("--no-highpass", action="store_true", help="skip the audio-band high-pass")
    p.add_argument("--phase-csv",
                   help="also write the recovered audio-rate phase here, as a trace CSV")
    p.set_defaults(func=cmd_demod)

    p = sub.add_parser("enhance", help="spectral-subtraction noise reduction")
    common(p)
    p.add_argument("--in", dest="audio_in", required=True, help="noisy trace (WAV or CSV)")
    p.add_argument("--noise-profile",
                   help="noise-only trace (WAV or CSV); skips silent-frame detection")
    p.add_argument("--reference", help="clean trace (WAV or CSV) for segmental SNR reporting")
    p.add_argument("--report", help="JSON report path")
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
    common(p, out_required=False)
    p.set_defaults(func=cmd_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_files(args)
        _run(args.func, args)
        return 0
    except (FiberTapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    raise SystemExit(main())
