"""WAV / CSV trace files, sidecar metadata and result tables."""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import astuple
from itertools import chain, islice

from ._numpy import np
from .errors import ConfigurationError, FileFormatError, InputError
from .trace import SampledTrace

BUDGET_HEADER = ("x_value", "thermal_rms_rad", "laser_rms_rad", "total_rms_rad", "limit_db")
MITIGATION_HEADER = ("label", "sensing_length_m", "bulk_modulus_scale",
                     "reflection_amplitude", "signal_rms_rad",
                     "delta_db_vs_baseline", "carrier_delta_db")

#: Rows a trace CSV is written and read in per block, which bounds the
#: text and the temporary arrays held at once.
CSV_BLOCK_ROWS = 2 ** 12

#: WAVE format tags. An extensible file names its real tag in the first four
#: bytes of a sub-format GUID that ends in `_GUID_TAIL`.
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: Sample dtype of each (format tag, bits per sample) that `_read_wav` reads.
_WAV_DTYPES = {(_PCM, 16): "<i2", (_IEEE_FLOAT, 32): "<f4", (_IEEE_FLOAT, 64): "<f8"}


def sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def write_json(path, obj):
    """Write `obj` as standard JSON with indent 2, sorted keys and a trailing
    newline. A NaN or infinite number raises `ValueError` before the file
    is opened, since JSON has no token for it."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _wav_format(body, path):
    """(rate, sample dtype) from the body of a ``fmt `` chunk."""
    if len(body) < 16:
        raise FileFormatError(f"{path}: fmt chunk of {len(body)} bytes is too short")
    tag, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", body)
    # WAVE_FORMAT_EXTENSIBLE: the sub-format GUID's first four bytes hold the tag
    if tag == _EXTENSIBLE and body[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", body, 24)[0]
    if channels != 1:
        raise InputError(f"{path}: only mono WAV is supported, got {channels} channels")
    if rate == 0:
        raise FileFormatError(f"{path}: WAV header gives a sample rate of 0")
    dtype = _WAV_DTYPES.get((tag, bits))
    if dtype is None or align != bits // 8:
        raise FileFormatError(
            f"{path}: unsupported WAV sample format (format tag {tag:#x}, {bits} bits, "
            f"block align {align}); use 16-bit PCM or 32/64-bit float")
    return float(rate), np.dtype(dtype)


def _read_wav(path):
    """Mono WAV as (sample_rate, float64 samples). PCM16 scaled to [-1, 1).

    Reads little-endian RIFF holding 16-bit PCM or 32/64-bit IEEE float,
    plain or WAVE_FORMAT_EXTENSIBLE. Chunks other than ``fmt `` and
    ``data`` are skipped, with the pad byte after an odd-sized chunk. Other
    files, a rate of 0 and a data chunk that is not a whole number of
    samples raise FileFormatError, and more than one channel InputError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise FileFormatError(
                f"{path}: not a little-endian RIFF/WAVE file (RIFX and RF64 are not read)")
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise FileFormatError(f"{path}: WAV file has no data chunk")
            chunk, n = struct.unpack("<4sI", head)
            if fh.tell() + n > size:
                raise FileFormatError(
                    f"{path}: WAV {chunk!r} chunk of {n} bytes runs past the end of the file")
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                fmt = _wav_format(fh.read(n), path)
            else:
                fh.seek(n, os.SEEK_CUR)
            fh.seek(n % 2, os.SEEK_CUR)
        if fmt is None:
            raise FileFormatError(f"{path}: WAV data chunk comes before any fmt chunk")
        rate, dtype = fmt
        if n % dtype.itemsize:
            raise FileFormatError(f"{path}: WAV data chunk of {n} bytes is not a whole "
                                  f"number of {dtype.itemsize}-byte samples")
        data = np.fromfile(fh, dtype=dtype, count=n // dtype.itemsize)
    samples = data.astype(np.float64, copy=False)
    if dtype.kind == "i":
        samples /= 32768.0
    return rate, samples


def wav_rate(sample_rate, name="sample rate") -> int:
    """The rate a WAV header holds for `sample_rate`.

    The header holds an integer, so a rate with a fractional part raises
    `ConfigurationError`, naming it as `name`, rather than being rounded;
    so does one whose byte rate, 4 bytes a sample, passes its 32-bit field.
    """
    if not float(sample_rate).is_integer():
        raise ConfigurationError(
            f"{name} {sample_rate!r} is not an integer, which a WAV header needs: "
            "write a .csv trace or set an integer rate")
    top = (2 ** 32 - 1) // 4
    if sample_rate > top:
        raise ConfigurationError(
            f"{name} {int(sample_rate)} is past the {top} S/s that a WAV header holds: "
            "write a .csv trace or set a lower rate")
    return int(sample_rate)


def write_wav(path, sample_rate, samples):
    """Write samples, in physical units, as a mono float32 WAV.

    The bytes are those scipy's wavfile writer gives float32 data: a 58-byte
    header of RIFF, an 18-byte ``fmt `` chunk (IEEE float, cbSize 0) and a
    ``fact`` chunk holding the sample count, then the ``data`` chunk. The
    rate must be an integer (`wav_rate`).
    """
    rate = wav_rate(sample_rate)
    data = np.asarray(samples, dtype=np.float64).astype("<f4")
    header = struct.pack("<4sI4s4sIHHIIHHH4sII4sI",
                         b"RIFF", 50 + data.nbytes, b"WAVE",
                         b"fmt ", 18, _IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
                         b"fact", 4, data.size, b"data", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        data.tofile(fh)


def _write_csv_trace(trace, path):
    """Write `trace` as CSV text, formatting and writing `CSV_BLOCK_ROWS`
    rows at a time."""
    rate = trace.sample_rate
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# sample_rate_hz={rate!r}\ntime_s,value\r\n")
        for start in range(0, trace.n_samples, CSV_BLOCK_ROWS):
            values = trace.samples[start:start + CSV_BLOCK_ROWS]
            times = _row_times(start, values.size, rate)
            fh.write("".join([f"{t!r},{v!r}\r\n"
                              for t, v in zip(times.tolist(), values.tolist())]))


def _row_times(start, n, rate):
    """The times ``i / rate`` of the `n` rows from row `start` of a trace
    CSV; a time past the float range (at rates below ~1e-304) is inf."""
    with np.errstate(over="ignore"):
        return np.arange(start, start + n) / rate


def trace_format(path) -> str:
    """The format of the trace file `path`, ``".wav"`` or ``".csv"``, from its
    extension; any other extension raises InputError."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in (".wav", ".csv"):
        raise InputError(f"unsupported trace extension {ext!r} (use .wav or .csv)")
    return ext


def check_trace_rate(path, sample_rate, name):
    """Reject, before any work, a trace file `path` of no trace format
    (`trace_format`) or a rate it cannot hold: a .wav holds an integer rate
    (`wav_rate`; `name` names the rate)."""
    if trace_format(path) == ".wav":
        wav_rate(sample_rate, f"{name} (for {path})")


def write_trace(trace: SampledTrace, path, extra_meta=None) -> str:
    """Write a real trace as WAV or CSV (by extension) plus a sidecar.

    The sidecar records kind, sample rate and a scale of 1.0 (``physical =
    file_value * scale``), plus any `extra_meta` entries, for readers
    outside fibertap: fibertap never reads it back (`read_trace`). Returns
    the sidecar path.
    """
    if np.iscomplexobj(trace.samples):
        raise InputError("complex baseband traces have no file representation")
    path = str(path)
    if trace_format(path) == ".wav":
        write_wav(path, trace.sample_rate, trace.samples)
    else:
        _write_csv_trace(trace, path)
    meta = {"kind": trace.kind, "sample_rate_hz": trace.sample_rate, "scale": 1.0}
    if extra_meta:
        meta.update(extra_meta)
    side = sidecar_path(path)
    write_json(side, meta)
    return side


def _read_csv_trace(path):
    """(rate, values) of a trace CSV, as `_write_csv_trace` writes it.

    Blank, ``#`` and ``time_s`` lines before the first row are the header,
    and a ``# sample_rate_hz=`` line there must state the rate, which must be
    finite and > 0; more than one such line must agree. Each row after is
    ``time,value``, and row i (from 0) must hold the time ``i / rate`` that
    the writer gives it; a ``#`` line among the rows is a bad row. An
    error names a row by that i.
    `np.loadtxt` reads the rows in blocks: freeing one whole-file array of
    both columns would make glibc serve later record-sized arrays from its
    heap, which raises the peak RSS of `demod` by one of them.
    """
    rate, first = None, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = map(str.strip, fh)
            for line in lines:
                if line.startswith("#") and "sample_rate_hz=" in line:
                    rate = _rate_line(path, line, rate)
                elif line and not line.startswith(("#", "time_s")):
                    first = line
                    break
            if rate is None:
                raise FileFormatError(f"{path}: no '# sample_rate_hz=' line before the "
                                      "first row; a trace CSV must state its rate")
            rows = filter(None, chain([first], lines) if first else ())
            start, blocks = 0, []
            for text in iter(lambda: list(islice(rows, CSV_BLOCK_ROWS)), []):
                block = _csv_rows(text)
                if block is None:
                    i = next(i for i, line in enumerate(text) if _csv_rows([line]) is None)
                    raise FileFormatError(
                        f"{path}: expected 'time,value' rows of numbers; row {start + i} "
                        f"(at {(start + i) / rate!r} s) reads {text[i]!r}")
                wrong = np.flatnonzero(block[:, 0] != _row_times(start, len(block), rate))
                if wrong.size:
                    row = start + int(wrong[0])
                    raise FileFormatError(
                        f"{path}: row {row} holds the time {float(block[wrong[0], 0])!r}, "
                        f"not {row / rate!r}: row i of a trace CSV is at i / rate")
                blocks.append(block)
                start += len(block)
    except ValueError as exc:  # not UTF-8
        raise FileFormatError(f"{path}: expected 'time,value' rows of numbers ({exc})") from exc
    if start < 2:
        raise FileFormatError(f"{path}: CSV trace needs at least two samples")
    return rate, np.concatenate([block[:, 1] for block in blocks])


def _csv_rows(lines):
    """The rows `lines` of a trace CSV as a (rows, 2) array, or None if a
    line is not two numbers or the lines do not have the same columns."""
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None
    return rows if rows.shape[1] == 2 else None


def _rate_line(path, line, rate):
    """The rate a ``# sample_rate_hz=`` line of the CSV `path` states, where
    `rate` is what an earlier such line stated, or None."""
    try:
        value = float(line.split("sample_rate_hz=")[1])
    except ValueError:
        raise FileFormatError(f"{path}: rate line {line!r} does not hold a number") from None
    if not 0 < value < math.inf:
        raise FileFormatError(f"{path}: rate line {line!r} gives a sample rate of {value!r}; "
                              "a rate must be finite and > 0")
    if rate is not None and value != rate:
        raise FileFormatError(f"{path}: rate lines disagree: {rate!r} and then {value!r}")
    return value


def read_trace(path, kind) -> SampledTrace:
    """The trace of kind `kind` that the WAV or CSV file `path` holds, read
    from the file alone: its rate is the one a WAV header or a CSV's rate
    line (`_read_csv_trace`) states. A sidecar next to it is not read."""
    if trace_format(path) == ".wav":
        rate, samples = _read_wav(path)
    else:
        rate, samples = _read_csv_trace(path)
    return SampledTrace._adopt(rate, samples, kind)  # the readers make a fresh array


def write_csv_table(path, header, rows):
    """Write dataclass rows under `header`; numbers as ``repr(float)``, text as is."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in astuple(r)]
                         for r in rows)


def sha256_file(path) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
