"""The package's import rules: no fibertap code loads scipy or a process
pool (`multiprocessing`, `concurrent`), since every command runs in one
process, and numpy and fibertap's own submodules load on first use, so
`--version`, `--help` and a usage error run only the CLI, and the commands
that compute on no array run without numpy. Those checks run in a fresh
interpreter, because this test process already has scipy and numpy
loaded. They read `sys.modules`, so they do not depend on timing.

The import graph is read from the source with `ast`: the forward model and
the file layer import nothing from `noise`, whose budgets and synthesis
build on the model, and no module imports a sibling inside a function.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import fibertap
import fibertap.cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fibertap.__file__)))
PACKAGE = Path(fibertap.__file__).parent

#: Prints the loaded modules as JSON after the script's own lines.
REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"

#: Prints the modules whose code has run: one that `importlib.util.LazyLoader`
#: registered keeps its lazy class until its first use.
RAN_REPORT = ("import json, sys; print(json.dumps(sorted(name for name, m in "
              "sys.modules.items() if type(m).__name__ != '_LazyModule')))")


def json_after(script, cwd):
    """The JSON that the last line `script` prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def modules_after(script, cwd):
    return json_after(script + "\n" + REPORT, cwd)


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
        "ifo = replace(ifo, reference_length=2306.0)\n"
        "budget = fibertap.compute_noise_budget(ifo, cfg.coupling, cfg.band, 1.0)\n"
        "assert budget.laser_rms > 0")
    assert scipy_modules_after(script, tmp_path) == []


def test_importing_the_package_and_cli_loads_no_pool(cli_import_modules):
    assert pool_modules(cli_import_modules) == []


def test_table_commands_load_no_pool(table_command_modules):
    assert pool_modules(table_command_modules) == []


#: `fibertap.__all__` as it was when the package imported every submodule
PUBLIC_NAMES = [
    "AUDIO", "AcousticCoupling", "AudioBand", "BASEBAND", "BudgetRow", "DemodConfig",
    "FiberSpec", "HETERODYNE", "InterferometerConfig", "LaserSpec", "MitigationRow",
    "MitigationScenario", "NoiseBudget", "PHASE", "SampledTrace", "SimulationConfig",
    "SpectralSubtractParams", "chain", "compare_mitigations", "compute_noise_budget",
    "config", "decimate_to_audio", "default_config", "demod", "detect_silent_frames",
    "detection_limit_vs_length", "detection_limit_vs_mismatch", "edge_guard", "enhance",
    "errors", "estimate_noise_spectrum", "highpass", "iq_demodulate",
    "laser_phase_psd_approx", "laser_phase_psd_full", "laser_rms", "load_config",
    "mismatch_to_delay", "model", "noise", "phase_rms_to_spl", "pressure_to_spl", "record",
    "recover", "resample", "scenario_voice_rms", "segmental_snr", "sensitivity",
    "spectral_subtract", "spl_to_pressure", "subtract_power_spectrum",
    "synthesize_colored_noise", "synthesize_heterodyne", "synthesize_system_noise",
    "system_phase_noise_psd", "thermal_psd", "thermal_rms", "trace", "unwrap_phase",
    "voice_rms_phase", "voice_to_phase",
]


def test_public_names_are_unchanged(tmp_path):
    assert fibertap.__all__ == PUBLIC_NAMES
    # dir() lists them all before any is read
    names = json_after("import json, fibertap; print(json.dumps(dir(fibertap)))", tmp_path)
    assert [name for name in names if not name.startswith("_")] == PUBLIC_NAMES


def test_each_public_name_is_its_submodules_object():
    assert fibertap.record is fibertap.chain.record
    for name in fibertap.__all__:
        obj = getattr(fibertap, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"fibertap.{name}"]
        elif isinstance(obj, str):  # a trace kind
            assert obj is getattr(fibertap.trace, name)
        else:
            assert obj.__module__.startswith("fibertap."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'fibertap' has no attribute 'nope'"):
        getattr(fibertap, "nope")
    assert not hasattr(fibertap, "main")
    with pytest.raises(ImportError):
        from fibertap import nope  # noqa: F401


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
    (tmp_path / "rate44k.yaml").write_text("demod:\n  audio_rate_hz: 44100\n")
    for argv in (
        ["demod", "--in", "het.wav", "--out", "rec.wav"],
        ["demod", "--config", "rate44k.yaml", "--in", "het.csv", "--out", "rec44k.wav",
         "--phase-csv", "phase.csv"],
        ["simulate", "--audio", "voice44k.wav", "--out", "het44k.wav", "--seed", "3",
         "--level-db", "70"],
    ):
        script = "import fibertap, fibertap.cli\n" + run_commands(argv)
        assert scipy_modules_after(script, tmp_path) == [], argv


#: `--version`, `--help` and a usage error (exit 2), which parse the
#: arguments and stop
START_ONLY = """import fibertap, fibertap.cli
for argv, code in ((["--version"], 0), (["--help"], 0), (["budget"], 2)):
    try:
        fibertap.cli.main(argv)
    except SystemExit as exc:
        assert exc.code == code, (argv, exc.code)
    else:
        raise AssertionError(argv)
"""

#: those, `print-config` and `sensitivity`: the commands that compute on no array
NO_ARRAY_COMMANDS = START_ONLY + run_commands(["print-config", "--out", "cfg.yaml"],
                                              ["sensitivity", "--out", "sens.csv"])


def test_version_help_and_usage_errors_run_only_the_cli(tmp_path):
    ran = json_after(START_ONLY + RAN_REPORT, tmp_path)
    assert loaded_from(("fibertap",), ran) == ["fibertap", "fibertap._numpy", "fibertap.cli",
                                                 "fibertap.errors"]
    assert "yaml" not in ran and "dataclasses" not in ran


def test_commands_without_arrays_load_no_numpy(tmp_path):
    write_inputs(tmp_path)
    assert "numpy._core" not in modules_after(NO_ARRAY_COMMANDS, tmp_path)
    # numpy loads on first use in the same process, and the array commands run
    script = NO_ARRAY_COMMANDS + "\n" + run_commands(
        ["budget", "--sweep", "length", "--points", "5", "--out", "len.csv"],
        ["simulate", "--audio", "voice.wav", "--out", "het.wav", "--seed", "3",
         "--level-db", "70"],
        ["demod", "--in", "het.wav", "--out", "rec.wav"],
        ["enhance", "--in", "noisy.wav", "--out", "clean.wav"])
    assert "numpy._core" in modules_after(script, tmp_path)


def test_csv_trace_commands_load_no_pool(tmp_path):
    # 0.1 s of voice: a het.csv of 40 000 rows, which the writer once
    # formatted in forked worker processes from 32 768 rows on
    rate = fibertap.default_config().interferometer.sample_rate
    n = int(rate) // 10
    wavfile.write(tmp_path / "voice.wav", int(rate),
                  np.sin(2 * np.pi * 1000 * np.arange(n) / rate).astype(np.float32))
    script = "import fibertap, fibertap.cli\n" + run_commands(
        ["simulate", "--audio", "voice.wav", "--out", "het.csv", "--seed", "3",
         "--level-db", "70"],
        ["demod", "--in", "het.csv", "--out", "rec.wav", "--phase-csv", "phase.csv"])
    assert pool_modules(modules_after(script, tmp_path)) == []
    with open(tmp_path / "het.csv", "rb") as fh:
        assert sum(1 for _ in fh) - 2 >= 32768


def sibling_imports(path):
    """(sibling, inside a function) of each import of a fibertap module in
    the source file `path`; the package's own ``__init__`` is not one."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name.split(".")[1] for alias in child.names
                         if alias.name.startswith("fibertap.")]
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level == 1 or module.split(".")[0] == "fibertap":
                    inner = module.removeprefix("fibertap").lstrip(".")
                    names = [inner.split(".")[0]] if inner else \
                        [alias.name for alias in child.names]
            found.extend((name, in_function) for name in names
                         if (PACKAGE / f"{name}.py").exists())
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


@pytest.mark.parametrize("module", ["model", "fileio"])
def test_model_and_fileio_import_nothing_from_noise(module):
    assert "noise" not in {name for name, _ in sibling_imports(PACKAGE / f"{module}.py")}


def test_no_module_imports_a_sibling_inside_a_function():
    late = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
            for name, in_function in sibling_imports(path) if in_function]
    assert late == []


def test_sibling_imports_reads_each_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import __version__\n"
        "from .model import voice_to_phase\n"
        "import fibertap.trace\n"
        "def f():\n"
        "    from . import noise\n"
        "    from fibertap.config import load_config\n"
        "    import numpy\n")
    assert sibling_imports(source) == [("model", False), ("trace", False),
                                       ("noise", True), ("config", True)]
