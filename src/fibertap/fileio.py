"""WAV / CSV trace files, sidecar metadata and result tables."""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import FileFormatError, InputError
from .noise import BudgetRow
from .sensitivity import MitigationRow
from .trace import KINDS, SampledTrace

BUDGET_HEADER = ("x_value", "thermal_rms_rad", "laser_rms_rad", "total_rms_rad", "limit_db")
MITIGATION_HEADER = ("label", "sensing_length_m", "bulk_modulus_scale",
                     "reflection_amplitude", "signal_rms_rad",
                     "delta_db_vs_baseline", "carrier_delta_db")


def sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def write_json(path, obj):
    """Write `obj` as JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_wav(path):
    """Mono WAV as (sample_rate, float64 samples). PCM16 scaled to [-1, 1)."""
    from scipy.io import wavfile
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FileFormatError(f"cannot read WAV file {path}: {exc}") from exc
    if data.ndim != 1:
        raise InputError(f"{path}: only mono WAV is supported, got {data.ndim} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FileFormatError(
            f"{path}: unsupported WAV sample format {data.dtype}; "
            "use 16-bit PCM or 32-bit float")
    return float(rate), samples


def write_wav(path, sample_rate, samples, normalize=False):
    """Write float32 WAV; returns the scale divided out (1.0 unless normalizing)."""
    from scipy.io import wavfile
    samples = np.asarray(samples, dtype=np.float64)
    scale = 1.0
    if normalize:
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        if peak > 0:
            scale = peak / 0.9
    wavfile.write(path, int(round(sample_rate)), (samples / scale).astype(np.float32))
    return scale


def write_trace(trace: SampledTrace, path, normalize=False, extra_meta=None) -> str:
    """Write a real trace as WAV or CSV (by extension) plus a sidecar.

    The sidecar records kind, sample rate and the scale factor that converts
    file values back to physical units (``physical = file_value * scale``),
    plus any `extra_meta` entries. Returns the sidecar path.
    """
    if np.iscomplexobj(trace.samples):
        raise InputError("complex baseband traces have no file representation")
    path = str(path)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".wav":
        scale = write_wav(path, trace.sample_rate, trace.samples, normalize=normalize)
    elif ext == ".csv":
        scale = 1.0
        times = trace.times()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# sample_rate_hz={trace.sample_rate!r}\n")
            writer = csv.writer(fh)
            writer.writerow(("time_s", "value"))
            for t, v in zip(times, trace.samples):
                writer.writerow((repr(float(t)), repr(float(v))))
    else:
        raise InputError(f"unsupported trace extension {ext!r} (use .wav or .csv)")
    meta = {"kind": trace.kind, "sample_rate_hz": trace.sample_rate, "scale": scale}
    if extra_meta:
        meta.update(extra_meta)
    side = sidecar_path(path)
    write_json(side, meta)
    return side


def read_trace(path, kind=None) -> SampledTrace:
    """Read a WAV or CSV trace, applying any sidecar scale/kind.

    `kind` names the kind the caller expects. It supplies the kind of a file
    without a sidecar; a sidecar that records a different kind is rejected.
    """
    path = str(path)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".wav":
        rate, samples = read_wav(path)
    elif ext == ".csv":
        rate = None
        times, values = [], []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "sample_rate_hz=" in line:
                        rate = float(line.split("sample_rate_hz=")[1])
                    continue
                if line.startswith("time_s"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise FileFormatError(f"{path}: expected 'time,value' rows")
                times.append(float(parts[0]))
                values.append(float(parts[1]))
        if len(values) < 2:
            raise FileFormatError(f"{path}: CSV trace needs at least two samples")
        if rate is None:
            rate = 1.0 / (times[1] - times[0])
        samples = np.asarray(values)
    else:
        raise InputError(f"unsupported trace extension {ext!r} (use .wav or .csv)")

    scale = float(meta.get("scale", 1.0))
    if kind and "kind" in meta and meta["kind"] != kind:
        raise InputError(
            f"{path}: sidecar says kind {meta['kind']!r}, expected {kind!r}")
    resolved_kind = kind or meta.get("kind")
    if resolved_kind not in KINDS:
        raise InputError(
            f"{path}: trace kind is unknown; pass kind= or provide a sidecar")
    rate = float(meta.get("sample_rate_hz", rate))
    return SampledTrace(rate, samples * scale, resolved_kind)


def _format(value) -> str:
    return repr(float(value))


def write_budget_csv(rows: list[BudgetRow], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BUDGET_HEADER)
        for r in rows:
            writer.writerow((_format(r.x_value), _format(r.thermal_rms),
                             _format(r.laser_rms), _format(r.total_rms),
                             _format(r.limit_db)))


def read_budget_csv(path) -> list[BudgetRow]:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != BUDGET_HEADER:
            raise FileFormatError(f"{path}: unexpected budget header {header}")
        for rec in reader:
            rows.append(BudgetRow(*(float(v) for v in rec)))
    return rows


def write_mitigation_csv(rows: list[MitigationRow], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MITIGATION_HEADER)
        for r in rows:
            writer.writerow((r.label, _format(r.sensing_length),
                             _format(r.bulk_modulus_scale),
                             _format(r.reflection_amplitude),
                             _format(r.signal_rms_rad),
                             _format(r.delta_db_vs_baseline),
                             _format(r.carrier_delta_db)))


def sha256_file(path) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
