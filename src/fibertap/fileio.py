"""WAV / CSV trace files, sidecar metadata and result tables."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import astuple
from itertools import chain, islice

import numpy as np

from .errors import FileFormatError, InputError
from .noise import BudgetRow
from .trace import KINDS, SampledTrace

BUDGET_HEADER = ("x_value", "thermal_rms_rad", "laser_rms_rad", "total_rms_rad", "limit_db")
MITIGATION_HEADER = ("label", "sensing_length_m", "bulk_modulus_scale",
                     "reflection_amplitude", "signal_rms_rad",
                     "delta_db_vs_baseline", "carrier_delta_db")

#: Rows a trace CSV is written and read in per block, which bounds the
#: text and the temporary arrays held at once.
CSV_BLOCK_ROWS = 2 ** 12


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


def write_wav(path, sample_rate, samples):
    """Write samples, in physical units, as a float32 WAV."""
    from scipy.io import wavfile
    samples = np.asarray(samples, dtype=np.float64)
    wavfile.write(path, int(round(sample_rate)), samples.astype(np.float32))


def write_trace(trace: SampledTrace, path, extra_meta=None) -> str:
    """Write a real trace as WAV or CSV (by extension) plus a sidecar.

    The sidecar records kind, sample rate and the scale factor that converts
    file values back to physical units (``physical = file_value * scale``;
    always 1.0 as written here, honoured by `read_trace`), plus any
    `extra_meta` entries. Returns the sidecar path.
    """
    if np.iscomplexobj(trace.samples):
        raise InputError("complex baseband traces have no file representation")
    path = str(path)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".wav":
        write_wav(path, trace.sample_rate, trace.samples)
    elif ext == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# sample_rate_hz={trace.sample_rate!r}\ntime_s,value\r\n")
            for start in range(0, trace.n_samples, CSV_BLOCK_ROWS):
                values = trace.samples[start:start + CSV_BLOCK_ROWS]
                times = np.arange(start, start + values.size) / trace.sample_rate
                fh.write("".join(map("{!r},{!r}\r\n".format,
                                     times.tolist(), values.tolist())))
    else:
        raise InputError(f"unsupported trace extension {ext!r} (use .wav or .csv)")
    meta = {"kind": trace.kind, "sample_rate_hz": trace.sample_rate, "scale": 1.0}
    if extra_meta:
        meta.update(extra_meta)
    side = sidecar_path(path)
    write_json(side, meta)
    return side


def _read_csv_trace(path):
    """(sample rate, values) of a trace CSV.

    Blank, ``#`` and ``time_s`` lines before the first row are the header;
    a ``# sample_rate_hz=`` line there gives the rate, else the first two
    times do. `np.loadtxt` reads the rows in blocks: freeing one whole-file
    array of both columns would make glibc serve later record-sized arrays
    from its heap, which raises the peak RSS of `demod` by one of them.
    """
    rate, first = None, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = map(str.strip, fh)
            for line in lines:
                if line.startswith("#") and "sample_rate_hz=" in line:
                    rate = float(line.split("sample_rate_hz=")[1])
                elif line and not line.startswith(("#", "time_s")):
                    first = line
                    break
            rows = filter(None, chain([first], lines) if first else ())
            blocks = [np.loadtxt(block, delimiter=",", ndmin=2)
                      for block in iter(lambda: list(islice(rows, CSV_BLOCK_ROWS)), [])]
    except ValueError as exc:
        raise FileFormatError(f"{path}: expected 'time,value' rows of numbers ({exc})") from exc
    if any(block.shape[1] != 2 for block in blocks):
        raise FileFormatError(f"{path}: expected 'time,value' rows")
    if sum(block.shape[0] for block in blocks) < 2:
        raise FileFormatError(f"{path}: CSV trace needs at least two samples")
    if rate is None:
        rate = 1.0 / (blocks[0][1, 0] - blocks[0][0, 0])
    return rate, np.concatenate([block[:, 1] for block in blocks])


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
        rate, samples = _read_csv_trace(path)
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


def write_csv_table(path, header, rows):
    """Write dataclass rows under `header`; numbers as ``repr(float)``, text as is."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in astuple(r)]
                         for r in rows)


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


def sha256_file(path) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
