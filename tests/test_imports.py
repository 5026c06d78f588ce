"""The package's import rule: no fibertap module imports scipy at module level.

Each check runs in a fresh interpreter, because this test process already has
scipy loaded. The checks read `sys.modules`, so they do not depend on timing.
"""

import json
import os
import subprocess
import sys

import numpy as np
from scipy.io import wavfile

import fibertap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fibertap.__file__)))

#: Prints the loaded scipy modules as JSON after the script's own lines.
REPORT = ('import json, sys; print(json.dumps(sorted('
          'm for m in sys.modules if m == "scipy" or m.startswith("scipy."))))')


def scipy_modules_after(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script + "\n" + REPORT],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_commands(*argvs):
    return "\n".join(f"assert fibertap.cli.main({list(argv)!r}) == 0" for argv in argvs)


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import fibertap, fibertap.cli", tmp_path) == []


def test_table_commands_load_no_scipy(tmp_path):
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["budget", "--sweep", "length", "--points", "5", "--out", "len.csv"],
        ["budget", "--sweep", "mismatch", "--include-thermal", "--points", "5",
         "--out", "mis.csv"],
        ["sensitivity", "--out", "sens.csv"],
        ["print-config", "--out", "cfg.yaml"])
    assert scipy_modules_after(script, tmp_path) == []


def write_inputs(d):
    """A gated 16 kHz tone for `enhance` and a 20 ms voice at the beat record rate."""
    fs = 16000
    t = np.arange(fs) / fs
    gate = ((t % 0.5) < 0.2).astype(float)
    wavfile.write(d / "noisy.wav", fs,
                  (0.3 * np.sin(2 * np.pi * 1500 * t) * gate).astype(np.float32))
    rate = fibertap.default_config().interferometer.sample_rate
    n = int(rate) // 50
    wavfile.write(d / "voice.wav", int(rate),
                  np.sin(2 * np.pi * 1000 * np.arange(n) / rate).astype(np.float32))


def test_enhance_and_same_rate_simulate_load_no_scipy(tmp_path):
    write_inputs(tmp_path)
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["enhance", "--in", "noisy.wav", "--out", "clean.wav"],
        ["simulate", "--audio", "voice.wav", "--out", "het.wav", "--seed", "3",
         "--level-db", "70"])
    assert scipy_modules_after(script, tmp_path) == []


def test_demod_of_a_wav_loads_no_scipy_io(tmp_path):
    write_inputs(tmp_path)
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["simulate", "--audio", "voice.wav", "--out", "het.wav", "--seed", "3",
         "--level-db", "70"],
        ["demod", "--in", "het.wav", "--out", "rec.wav"])
    loaded = scipy_modules_after(script, tmp_path)
    assert "scipy.signal" in loaded
    assert not [m for m in loaded if m == "scipy.io" or m.startswith("scipy.io.")]
