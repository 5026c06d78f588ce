"""End-to-end benchmark of the fibertap command line.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload voice-wav --seed 1 --seconds 10 --trace 0

One client runs the workload's CLI commands one after another, each in its
own interpreter, so start-up and imports count as a user pays them (closed
loop, one command in flight). A run repeats whole rounds of the workload
until `--seconds` have passed, two rounds at least. It checks every output
against figures computed in `reference.py` without fibertap, and prints one
JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, peak_rss_mb and
phase_err_rad. --trace 1 reports the per-layer metrics: per-command and
per-stage CLI times of the named workload, one round of each other
workload, and an in-process pass over every workload's commands, run once
untraced and once with spans (`layers.py`). The in-process pass calls
`fibertap.cli.main` with the same arguments as the spawned commands, so it
runs the CLI's own code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.io import wavfile

import layers
import reference as ref

LEVEL_DB = 70.0
#: `fibertap --version` spawns before the first round; one more precedes
#: every round, so the spawns spread over the run. setup_s is their median.
SETUP_SPAWNS = 3
#: Rounds per run at least, so that wall_s is never a single sample.
MIN_ROUNDS = 2
#: Every run ends well inside three minutes, a hung command included.
DEADLINE_S = 170.0
#: (from, to, points) of the two budget sweeps; 3 km and 100 m are anchors.
LENGTHS = (3.0, 3000.0, 31)
MISMATCHES = (100.0, 10000.0, 21)
LAUNCH = "import sys; from fibertap.cli import main; sys.exit(main())"


class Cli:
    """Spawns fibertap commands from the checkout's sources and times them."""

    def __init__(self, root, cwd, deadline):
        self.cwd = cwd
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def run(self, args):
        """Run one command; returns its record (wall, cpu, exit code)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(os.path.join(self.cwd, "cli.log"), "ab") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *args], cwd=self.cwd,
                                    env=self.env, stdout=out, stderr=out)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rec = {"command": args[0], "wall_s": wall, "exit": code,
               "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)}
        return rec


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def read_output(path):
    """(values, rate, start_time_s) of a WAV or CSV trace and its sidecar."""
    with open(path + ".meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if path.endswith(".wav"):
        _, values = wavfile.read(path)
    else:
        values = np.loadtxt(path, delimiter=",", comments="#", skiprows=2, usecols=1)
    values = values.astype(np.float64) * float(meta["scale"])
    return values, float(meta["sample_rate_hz"]), float(meta.get("start_time_s", 0.0))


def sweep_args(sweep):
    lo, hi, n = sweep
    return ["--from", repr(lo), "--to", repr(hi), "--points", str(n)]


def stage_timings(path):
    with open(path + ".manifest.json", "r", encoding="utf-8") as fh:
        return dict(json.load(fh)["stage_timings"])


# --- workloads ---------------------------------------------------------------
#
# A workload writes its inputs once per run and then gives, per round, the
# same list of operations: (CLI arguments, output with a manifest, check). A
# check returns a list of problems; it may store figures in the round's
# `state`.


class Voice:
    """simulate -> demod (-> enhance) on a seeded synthetic voice record."""

    def __init__(self, duration, fmt, phase_csv, enhance):
        self.duration, self.fmt = duration, fmt
        self.phase_csv, self.enhance = phase_csv, enhance

    def prepare(self, work, seed, consts):
        fs = consts["interferometer"]["sample_rate_hz"]
        self.voice = ref.make_voice(seed, self.duration, fs)
        self.truth = ref.ground_truth(self.voice, consts, LEVEL_DB)
        self.seed = seed
        wavfile.write(os.path.join(work, "voice.wav"), int(fs), self.voice.samples)

    def operations(self):
        f = self.fmt
        ops = [(["simulate", "--audio", "voice.wav", "--out", f"out/het.{f}",
                 "--seed", str(self.seed), "--level-db", str(LEVEL_DB)],
                f"out/het.{f}", self.check_het)]
        demod = ["demod", "--in", f"out/het.{f}", "--out", f"out/recovered.{f}"]
        if self.phase_csv:
            demod += ["--phase-csv", "out/phase.csv"]
        ops.append((demod, f"out/recovered.{f}", self.check_demod))
        if self.enhance:
            ops.append((["enhance", "--in", "out/recovered.wav", "--out", "out/clean.wav",
                         "--reference", "out/reference.wav"],
                        "out/clean.wav", self.check_enhance))
        return ops

    def check_het(self, work, state):
        values, rate, _ = read_output(os.path.join(work, f"out/het.{self.fmt}"))
        if values.size != self.voice.samples.size or rate != self.voice.sample_rate:
            return [f"heterodyne trace has {values.size} samples at {rate} S/s"]
        return []

    def check_demod(self, work, state):
        values, rate, start = read_output(os.path.join(work, f"out/recovered.{self.fmt}"))
        got = ref.check_phase(values, rate, start, self.truth, "recovered audio")
        state["phase_err_rad"] = got.err_rad
        state["recovered"] = (values, rate, start)
        problems = got.problems
        if self.phase_csv:
            full, frate, fstart = read_output(os.path.join(work, "out/phase.csv"))
            problems = problems + ref.check_phase(full, frate, fstart, self.truth,
                                                  "phase CSV").problems
        if self.enhance and not problems:
            aligned = ref.aligned_truth(self.truth, rate, start, values.size)
            wavfile.write(os.path.join(work, "out/reference.wav"), int(rate),
                          aligned.astype(np.float32))
        return problems

    def check_enhance(self, work, state):
        noisy, rate, start = state["recovered"]
        _, clean = wavfile.read(os.path.join(work, "out/clean.wav"))
        problems = ref.check_enhanced(clean.astype(np.float64), noisy, rate, start,
                                      self.truth)
        with open(os.path.join(work, "out/clean.wav.report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if not report["n_silent_frames"] or not report["gain_db"] > 0:
            problems.append(f"enhance report shows no silent frames or no gain: {report}")
        state["enhance_frames"] = report["n_frames"]
        return problems


class Tables:
    """Detection-limit sweeps, mitigation table and resolved config."""

    def prepare(self, work, seed, consts):
        self.consts = consts

    def operations(self):
        return [
            (["budget", "--sweep", "length", *sweep_args(LENGTHS), "--out", "out/length.csv"],
             "out/length.csv", self.check_length),
            (["budget", "--sweep", "mismatch", *sweep_args(MISMATCHES), "--include-thermal",
              "--out", "out/mismatch.csv"], "out/mismatch.csv", self.check_mismatch),
            (["budget", "--sweep", "length", *sweep_args(LENGTHS), "--format", "json",
              "--out", "out/length.json"], "out/length.json", self.check_json),
            (["sensitivity", "--out", "out/mitigations.csv"], "out/mitigations.csv",
             self.check_sensitivity),
            (["print-config", "--out", "out/config.yaml"], None, self.check_config),
        ]

    def check_length(self, work, state):
        rows = ref.read_budget_csv(os.path.join(work, "out/length.csv"))
        state["length_rows"] = rows
        return ref.check_length_sweep(rows, self.consts, np.geomspace(*LENGTHS))

    def check_mismatch(self, work, state):
        rows = ref.read_budget_csv(os.path.join(work, "out/mismatch.csv"))
        problems = ref.check_mismatch_sweep(rows, self.consts, np.geomspace(*MISMATCHES))
        if not problems:
            # No audio here; the figure is the thermal floor the checked table
            # states for the configured tap, the floor the voice workloads reach.
            state["phase_err_rad"] = rows[0]["thermal_rms_rad"]
        return problems

    def check_json(self, work, state):
        if "length_rows" not in state:
            return ["no CSV budget to compare the JSON budget with"]
        return ref.check_budget_json(os.path.join(work, "out/length.json"),
                                     state["length_rows"])

    def check_sensitivity(self, work, state):
        path = os.path.join(work, "out/mitigations.csv")
        return ref.check_mitigations(path, path + ".summary.json", self.consts)

    def check_config(self, work, state):
        with open(os.path.join(work, "out/config.yaml"), encoding="utf-8") as fh:
            return ref.check_print_config(fh.read(), self.consts)


WORKLOADS = {
    "voice-wav": lambda: Voice(10.0, "wav", phase_csv=False, enhance=True),
    "voice-csv": lambda: Voice(2.0, "csv", phase_csv=True, enhance=False),
    "tables": Tables,
}


# --- running -----------------------------------------------------------------


def run_round(run, workload, work):
    """One round: every operation once, each checked. Returns (ops, state).

    `run(args)` runs one command and returns its record, with its exit code.
    """
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    state, ops = {}, []
    for args, output, check in workload.operations():
        rec = run(args)
        problems = [f"exited with {rec['exit']}"] if rec["exit"] != 0 else []
        if not problems:
            try:
                problems = check(work, state)
                if output is not None:
                    rec["stages"] = stage_timings(os.path.join(work, output))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        rec["problems"] = problems
        ops.append(rec)
    return ops, state


class InProcess:
    """Runs fibertap commands through `fibertap.cli.main` in this process."""

    def __init__(self, work):
        self.work = work
        self.wall_s = 0.0

    def run(self, args):
        from fibertap.cli import main
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = main(args)
                self.wall_s += time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return {"command": args[0], "exit": code}


def prepare(name, root, seed, consts, tag):
    work = os.path.join(root, "bench", "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[name]()
    workload.prepare(work, seed, consts)
    return workload, work


def cli_layer_metrics(rounds):
    """Per-command and per-stage medians, and the CPU time of a round."""
    by_cmd, by_stage = {}, {}
    for ops, _ in rounds:
        for rec in ops:
            by_cmd.setdefault(rec["command"], []).append(rec["wall_s"])
            for stage, secs in rec.get("stages", {}).items():
                by_stage.setdefault(f"{rec['command']}.{stage}", []).append(secs)
    out = {f"cli.{c}_s": (statistics.median(v), "s") for c, v in by_cmd.items()}
    out.update({f"cli.{s}_s": (statistics.median(v), "s") for s, v in by_stage.items()})
    out["cli.cpu_s"] = (statistics.median(sum(r["cpu_s"] for r in ops)
                                          for ops, _ in rounds), "s")
    return out


def in_process_metrics(root, order, seed, consts):
    """Each workload's commands through `fibertap.cli.main`, untraced and
    then traced, in process. Returns (metrics, the traced pass's records).

    Only the commands are timed, not the checks between them. A metric that
    several workloads produce is taken from the first in `order`.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    layers.modules()  # imports are the CLI's cost, not the pass's
    out, spans, ops = {}, {}, []
    for name in order:
        workload, work = prepare(name, root, seed, consts, f"inproc-{name}")
        tracer = layers.Tracer()
        # warm-up: first touches of memory and files are not tracing
        run_round(InProcess(work).run, workload, work)
        plain, timed = InProcess(work), InProcess(work)
        run_round(plain.run, workload, work)
        with layers.instrumented(tracer):
            round_ops, state = run_round(timed.run, workload, work)
        ops += round_ops
        untraced, traced = plain.wall_s, timed.wall_s
        if "enhance_frames" in state:
            tracer.counts["enhance.frames"] += state["enhance_frames"]
        shutil.rmtree(work)
        spans[name] = {"spans": tracer.spans, "untraced_s": untraced, "traced_s": traced}
        found = {f"{span}_s": (secs, "s") for span, secs in tracer.self_times().items()}
        found.update({k: (v, "count") for k, v in tracer.counts.items()})
        found.update({k: (v, "MB") for k, v in tracer.peaks.items()})
        found["tracing.untraced_s"] = (untraced, "s")
        found["tracing.overhead_s"] = (traced - untraced, "s")
        for k, v in found.items():
            out.setdefault(k, v)
    with open(os.path.join(root, "bench", "work", f"spans-{order[0]}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spans, fh)
    return out, ops


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    config_path = os.path.join(root, "src", "fibertap", "default_config.yaml")
    if not os.path.isfile(os.path.join(root, "src", "fibertap", "cli.py")) \
            or not os.path.isfile(config_path):
        print("error: run from the root of a fibertap checkout (no src/fibertap)",
              file=sys.stderr)
        return 2
    consts = ref.load_constants(config_path)
    deadline = time.monotonic() + DEADLINE_S

    workload, work = prepare(args.workload, root, args.seed, consts, args.workload)
    cli = Cli(root, work, deadline)
    metrics = {}
    setup = []  # timed `fibertap --version` spawns

    def spawn_version(n):
        """Spawn `fibertap --version` n times; False if a spawn failed."""
        setup.extend(cli.run(["--version"]) for _ in range(n))
        if all(r["exit"] == 0 for r in setup):
            return True
        print("error: `fibertap --version` failed; see " + os.path.join(work, "cli.log"),
              file=sys.stderr)
        return False

    if not args.trace and not spawn_version(SETUP_SPAWNS):
        return 1

    rounds = []
    t0 = time.perf_counter()
    while True:
        if not args.trace and not spawn_version(1):
            return 1
        rounds.append(run_round(cli.run, workload, work))
        done = time.perf_counter() - t0 >= args.seconds and len(rounds) >= MIN_ROUNDS
        if done or time.monotonic() > deadline - 60:
            break
    if args.trace:
        order = [args.workload] + [n for n in sorted(WORKLOADS) if n != args.workload]
        extra = []
        for name in order[1:]:
            other, other_work = prepare(name, root, args.seed, consts, name)
            extra.append(run_round(Cli(root, other_work, deadline).run, other, other_work))
            shutil.rmtree(other_work)
        for rnds in [rounds] + [[r] for r in extra]:
            for name, v in cli_layer_metrics(rnds).items():
                metrics.setdefault(name, v)
        found, in_process = in_process_metrics(root, order, args.seed, consts)
        metrics.update(found)
        rounds = rounds + extra + [(in_process, {})]
    else:
        metrics["setup_s"] = (statistics.median(r["wall_s"] for r in setup), "s")
        metrics["wall_s"] = (statistics.median(
            sum(r["wall_s"] for r in ops) for ops, _ in rounds), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        errs = [st.get("phase_err_rad", math.nan) for _, st in rounds]
        metrics["phase_err_rad"] = (statistics.median(errs), "rad")

    ops = [rec for r_ops, _ in rounds for rec in r_ops]
    failed = [rec for rec in ops if rec["problems"]]
    for rec in failed:
        print(f"FAILED {rec['command']}: {'; '.join(rec['problems'])}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not any(rec["exit"] == 0 for rec in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(f"{args.workload}: {len(rounds)} round(s), {len(ops)} commands", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
