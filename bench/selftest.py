"""Self-test of the benchmark's output checks.

Usage (from the root of a source checkout):

    python3 bench/selftest.py

Runs a short voice record (2 s, WAV) and the `tables` commands once through
the CLI, shows that the checks accept the real outputs, then feeds them
corrupted copies and shows that each one is rejected: recovered audio
shifted by one sample, recovered audio scaled by 1.1, and one budget row
whose limit is off by 0.1 dB. Exits 1 if any corruption is accepted.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import numpy as np

import reference as ref
import run


def main() -> int:
    root = os.getcwd()
    consts = ref.load_constants(os.path.join(root, "src", "fibertap", "default_config.yaml"))
    work = os.path.join(root, "bench", "work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + run.DEADLINE_S
    voice = run.Voice(2.0, "wav", phase_csv=False, enhance=True)
    voice.prepare(work, 7, consts)
    ops, state = run.run_round(run.Cli(root, work, deadline).run, voice, work)
    tables = run.Tables()
    tables.prepare(work, 7, consts)
    table_ops, table_state = run.run_round(run.Cli(root, work, deadline).run, tables, work)

    ok = True
    for rec in ops + table_ops:
        print(f"{'REJECTED' if rec['problems'] else 'accepted'}: real {rec['command']} output",
              *rec["problems"])
        ok &= not rec["problems"]

    audio, rate, start = state["recovered"]
    rows = table_state["length_rows"]
    off = [dict(r) for r in rows]
    off[len(off) // 2]["limit_db"] += 0.1
    corruptions = {
        "audio shifted by one sample":
            ref.check_phase(np.roll(audio, 1), rate, start, voice.truth, "audio").problems,
        "audio scaled by 1.1":
            ref.check_phase(audio * 1.1, rate, start, voice.truth, "audio").problems,
        "budget row off by 0.1 dB": ref.check_length_sweep(off, consts,
                                                           np.geomspace(*run.LENGTHS)),
    }
    for what, problems in corruptions.items():
        print(f"{'rejected' if problems else 'ACCEPTED'}: {what}:", "; ".join(problems))
        ok &= bool(problems)
    shutil.rmtree(work)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
