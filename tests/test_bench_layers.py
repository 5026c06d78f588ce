"""`bench/run.py --trace 1` patches fibertap functions by the names that
`bench/layers.py` lists in ``LAYERS``, so a renamed function would silently
drop out of the traced pass. Every listed name must resolve in its module,
and every `demod` name must be a step of `fibertap demod` that takes a
`SampledTrace` first and returns one, as the tracer's wrapper assumes.

The list is read from the file's source, so nothing under ``bench/`` is
imported, run or written.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_functions():
    tree = ast.parse(LAYERS_PY.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return [(module, name) for module, names in layers.items() for name in names]


@pytest.mark.parametrize("module,name", traced_functions())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fibertap.{module}"), name))


def test_demod_steps_take_and_return_a_trace(tmp_path, monkeypatch):
    # the tracer wraps each `demod` name on `fibertap.demod`, where
    # `recover` looks it up, and reads `n_samples` from its first argument
    # and from its result; run `demod` on a short record with each name so
    # wrapped, in the CLI's own order
    import fibertap.cli
    import fibertap.demod
    from fibertap import PHASE, SampledTrace, default_config, synthesize_heterodyne
    from fibertap.fileio import write_trace

    ifo = default_config().interferometer
    het = synthesize_heterodyne(ifo, SampledTrace(ifo.sample_rate, np.zeros(20000), PHASE))
    write_trace(het, tmp_path / "het.wav")
    names = [name for module, name in traced_functions() if module == "demod"]
    calls = []

    def recording(name, orig):
        def wrapper(trace, *args, **kwargs):
            out = orig(trace, *args, **kwargs)
            calls.append((name, trace, out))
            return out
        return wrapper

    for name in names:
        monkeypatch.setattr(fibertap.demod, name,
                            recording(name, getattr(fibertap.demod, name)))
    assert fibertap.cli.main(["demod", "--in", str(tmp_path / "het.wav"),
                              "--out", str(tmp_path / "rec.wav")]) == 0
    assert [name for name, _, _ in calls] == [
        "decimate_to_audio", "iq_demodulate", "unwrap_phase", "highpass"]
    assert sorted(names) == sorted(name for name, _, _ in calls)
    for name, trace, out in calls:
        assert isinstance(trace, SampledTrace) and isinstance(out, SampledTrace), name
        assert trace.n_samples > 0 and out.n_samples > 0, name


def test_every_trace_of_the_chain_runs_post_init(monkeypatch):
    # the tracer counts traces with a one-argument wrapper that it sets as
    # `SampledTrace.__post_init__`, so every trace `record` and `recover`
    # build, copied or handed over, must be built through that attribute
    from fibertap import AUDIO, SampledTrace, default_config, record, recover

    seen = []
    post_init = SampledTrace.__post_init__

    def counting(self):
        post_init(self)
        seen.append(self)

    monkeypatch.setattr(SampledTrace, "__post_init__", counting)
    cfg = default_config()
    # resampled and rescaled, so a new voice trace; and the caller's own,
    # used as it is
    for rate, level_db, voices in ((16000.0, 70.0, 1), (cfg.interferometer.sample_rate, None, 0)):
        voice = SampledTrace(rate, 0.1 * np.sin(np.arange(int(rate / 20)) * 0.3), AUDIO)  # 50 ms
        seen.clear()
        het = record(voice, cfg, 1, level_db)
        # the voice made here, if any, its phase, the noise and the beat
        assert len(seen) == voices + 3 and seen[-1] is het
        phase, _ = recover(het, cfg.demod, cfg.band, True)
        # decimated, mixed, guard-trimmed, unwrapped and high-passed
        assert len(seen) == voices + 8 and seen[-1] is phase
