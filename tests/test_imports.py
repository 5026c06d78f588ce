"""The package's import rules: no fibertap code loads scipy, and only the
trace-CSV writer loads the process pool (`multiprocessing`,
`concurrent.futures`).

Each check runs in a fresh interpreter, because this test process already has
scipy loaded. The checks read `sys.modules`, so they do not depend on timing.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

import fibertap
import fibertap.cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fibertap.__file__)))

#: Prints the loaded modules as JSON after the script's own lines.
REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def modules_after(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script + "\n" + REPORT],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_from(packages, modules):
    return [m for m in modules if m.split(".")[0] in packages]


def scipy_modules_after(script, cwd):
    return loaded_from(("scipy",), modules_after(script, cwd))


def pool_modules(modules):
    return loaded_from(("multiprocessing", "concurrent"), modules)


def run_commands(*argvs):
    return "\n".join(f"assert fibertap.cli.main({list(argv)!r}) == 0" for argv in argvs)


@pytest.fixture(scope="module")
def cli_import_modules(tmp_path_factory):
    return modules_after("import fibertap, fibertap.cli", tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def table_command_modules(tmp_path_factory):
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["budget", "--sweep", "length", "--points", "5", "--out", "len.csv"],
        ["budget", "--sweep", "mismatch", "--include-thermal", "--points", "5",
         "--out", "mis.csv"],
        ["sensitivity", "--out", "sens.csv"],
        ["print-config", "--out", "cfg.yaml"])
    return modules_after(script, tmp_path_factory.mktemp("tables"))


def test_importing_the_package_and_cli_loads_no_scipy(cli_import_modules):
    assert loaded_from(("scipy",), cli_import_modules) == []


def test_table_commands_load_no_scipy(table_command_modules):
    assert loaded_from(("scipy",), table_command_modules) == []


def test_full_form_noise_budget_loads_no_scipy(tmp_path):
    # a 100 m arm mismatch, so the laser term is integrated, not skipped
    script = (
        "from dataclasses import replace\n"
        "import fibertap\n"
        "cfg = fibertap.default_config()\n"
        "ifo = cfg.interferometer\n"
        "ifo = replace(ifo, reference_fiber=replace(ifo.reference_fiber, length=2306.0))\n"
        "budget = fibertap.compute_noise_budget(ifo, cfg.coupling, cfg.band, form='full')\n"
        "assert budget.laser_rms > 0")
    assert scipy_modules_after(script, tmp_path) == []


def test_importing_the_package_and_cli_loads_no_pool(cli_import_modules):
    assert pool_modules(cli_import_modules) == []


def test_table_commands_load_no_pool(table_command_modules):
    assert pool_modules(table_command_modules) == []


def write_inputs(d):
    """A gated 16 kHz tone for `enhance`, a 20 ms voice at the beat record
    rate and a 20 ms voice at 44.1 kHz."""
    fs = 16000
    t = np.arange(fs) / fs
    gate = ((t % 0.5) < 0.2).astype(float)
    wavfile.write(d / "noisy.wav", fs,
                  (0.3 * np.sin(2 * np.pi * 1500 * t) * gate).astype(np.float32))
    for name, rate in (("voice.wav", fibertap.default_config().interferometer.sample_rate),
                       ("voice44k.wav", 44100)):
        n = int(rate) // 50
        wavfile.write(d / name, int(rate),
                      np.sin(2 * np.pi * 1000 * np.arange(n) / rate).astype(np.float32))


def test_enhance_and_same_rate_simulate_load_no_scipy(tmp_path):
    write_inputs(tmp_path)
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["enhance", "--in", "noisy.wav", "--out", "clean.wav"],
        ["simulate", "--audio", "voice.wav", "--out", "het.wav", "--seed", "3",
         "--level-db", "70"])
    assert scipy_modules_after(script, tmp_path) == []


def test_demod_and_resampling_simulate_load_no_scipy(tmp_path):
    write_inputs(tmp_path)
    # the heterodyne inputs are made here; each checked command runs alone
    for fmt in ("wav", "csv"):
        assert fibertap.cli.main(["simulate", "--audio", str(tmp_path / "voice.wav"),
                                  "--out", str(tmp_path / f"het.{fmt}"), "--seed", "3",
                                  "--level-db", "70"]) == 0
    for argv in (
        ["demod", "--in", "het.wav", "--out", "rec.wav"],
        ["demod", "--in", "het.csv", "--out", "rec44k.wav", "--phase-csv", "phase.csv",
         "--audio-rate", "44100"],
        ["simulate", "--audio", "voice44k.wav", "--out", "het44k.wav", "--seed", "3",
         "--level-db", "70"],
    ):
        script = "import fibertap, fibertap.cli\n" + run_commands(argv)
        assert scipy_modules_after(script, tmp_path) == [], argv


def test_csv_phase_output_loads_the_pool(tmp_path):
    write_inputs(tmp_path)
    assert fibertap.cli.main(["simulate", "--audio", str(tmp_path / "voice.wav"),
                              "--out", str(tmp_path / "het.wav"), "--seed", "3",
                              "--level-db", "70"]) == 0
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["demod", "--in", "het.wav", "--out", "rec.wav", "--phase-csv", "phase.csv"])
    loaded = pool_modules(modules_after(script, tmp_path))
    assert "multiprocessing" in loaded and "concurrent.futures" in loaded
