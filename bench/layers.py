"""Spans around the fibertap modules' public functions, for an in-process pass.

The spans are recorded from here, by swapping each public function named
in `LAYERS` for a wrapper, on its module and on `fibertap.cli` where the CLI
imported it by name, while a traced pass runs `fibertap.cli.main`; the
package itself is not changed. A span holds (name, start, end, parent).
Spans are kept in memory; `run.py` writes them out when the run ends. Self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

#: Module -> public functions that get a span of their own.
LAYERS = {
    "config": ("load_config",),
    "model": ("voice_to_phase", "synthesize_heterodyne"),
    "noise": ("synthesize_system_noise", "detection_limit_vs_length",
              "detection_limit_vs_mismatch"),
    "demod": ("iq_demodulate", "unwrap_phase", "highpass", "decimate_to_audio"),
    "enhance": ("detect_silent_frames", "estimate_noise_spectrum",
                "spectral_subtract", "segmental_snr"),
    "sensitivity": ("compare_mitigations",),
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None]
        self._stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)


def modules():
    import fibertap.cli
    import fibertap.config
    import fibertap.demod
    import fibertap.enhance
    import fibertap.fileio
    import fibertap.model
    import fibertap.noise
    import fibertap.sensitivity
    import fibertap.trace
    return {name: getattr(fibertap, name) for name in
            ("cli", "config", "model", "noise", "demod", "enhance", "sensitivity",
             "fileio", "trace")}


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the traced functions for span-recording wrappers, then restore them."""
    mods = modules()
    saved = []

    def patch(owner, attr, wrapper):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        # the CLI calls the names it imported, not the modules' attributes
        if getattr(mods["cli"], attr, None) is orig:
            saved.append((mods["cli"], attr, orig))
            setattr(mods["cli"], attr, wrapper)

    def plain(layer, fname, orig):
        def wrapper(*args, **kwargs):
            with tracer.span(f"{layer}.{fname}"):
                return orig(*args, **kwargs)
        return wrapper

    def demod_step(fname, orig):
        # memory and sample counts of the DSP steps that touch full-rate records
        def wrapper(trace, *args, **kwargs):
            name = f"demod.{fname}"
            with tracer.span(name):
                tracemalloc.start()
                try:
                    out = orig(trace, *args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            tracer.peaks[name + "_peak_mb"] = max(tracer.peaks[name + "_peak_mb"],
                                                  peak / 2 ** 20)
            tracer.counts[name + "_samples_in"] += trace.n_samples
            tracer.counts[name + "_samples_out"] += out.n_samples
            return out
        return wrapper

    def by_extension(fname, orig, direction):
        def wrapper(*args, **kwargs):
            path = str(args[1] if direction == "write" else args[0])
            name = f"fileio.{fname}_{os.path.splitext(path)[1].lstrip('.').lower()}"
            with tracer.span(name):
                out = orig(*args, **kwargs)
            tracer.counts[name + "_rows"] += (args[0] if direction == "write" else out).n_samples
            tracer.counts[name + "_bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def sampled_trace(orig):
        def wrapper(self):
            with tracer.span("trace.sampled_trace"):
                orig(self)
            tracer.counts["trace.sampled_trace_calls"] += 1
        return wrapper

    try:
        for layer, names in LAYERS.items():
            for fname in names:
                orig = getattr(mods[layer], fname)
                patch(mods[layer], fname, demod_step(fname, orig) if layer == "demod"
                      else plain(layer, fname, orig))
        patch(mods["fileio"], "write_trace",
              by_extension("write_trace", mods["fileio"].write_trace, "write"))
        patch(mods["fileio"], "read_trace",
              by_extension("read_trace", mods["fileio"].read_trace, "read"))
        cls = mods["trace"].SampledTrace
        patch(cls, "__post_init__", sampled_trace(cls.__post_init__))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
