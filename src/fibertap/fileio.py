"""WAV / CSV trace files, sidecar metadata and result tables."""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import astuple
from functools import partial
from itertools import chain, islice

from ._numpy import np
from .errors import ConfigurationError, FileFormatError, InputError
from .trace import KINDS, SampledTrace

BUDGET_HEADER = ("x_value", "thermal_rms_rad", "laser_rms_rad", "total_rms_rad", "limit_db")
MITIGATION_HEADER = ("label", "sensing_length_m", "bulk_modulus_scale",
                     "reflection_amplitude", "signal_rms_rad",
                     "delta_db_vs_baseline", "carrier_delta_db")

#: Rows a trace CSV is written and read in per block, which bounds the
#: text and the temporary arrays held at once.
CSV_BLOCK_ROWS = 2 ** 12
#: Rows from which a trace CSV's blocks are formatted in forked worker
#: processes instead of this one. Starting two workers costs 10-50 ms; on a
#: 2-vCPU VM the pool broke even between 16 k and 32 k rows.
CSV_POOL_MIN_ROWS = 8 * CSV_BLOCK_ROWS
#: Most worker processes that format one trace CSV, and the blocks each
#: worker task formats.
CSV_POOL_MAX_WORKERS = 8
CSV_POOL_TASK_BLOCKS = 2

#: WAVE format tags. An extensible file names its real tag in the first four
#: bytes of a sub-format GUID that ends in `_GUID_TAIL`.
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: Sample dtype of each (format tag, bits per sample) that `read_wav` reads.
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


def read_wav(path):
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
    `ConfigurationError`, naming it as `name`, rather than being rounded.
    """
    if not float(sample_rate).is_integer():
        raise ConfigurationError(
            f"{name} {sample_rate!r} is not an integer, which a WAV header needs: "
            "write a .csv trace or set an integer rate")
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


#: The trace a forked CSV worker formats, set by `_pool_init` in the worker.
_pool_trace = None


def _csv_block(trace, start):
    """Trace-CSV rows of `trace` from sample `start`, one block of them."""
    values = trace.samples[start:start + CSV_BLOCK_ROWS]
    times = np.arange(start, start + values.size) / trace.sample_rate
    return "".join(map("{!r},{!r}\r\n".format, times.tolist(), values.tolist()))


def _pool_init(trace):
    global _pool_trace
    _pool_trace = trace


def _pool_csv_block(start):
    return _csv_block(_pool_trace, start)


def _csv_workers():
    """CPUs this process may run on, at most `CSV_POOL_MAX_WORKERS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, CSV_POOL_MAX_WORKERS)


def _write_csv_trace(trace, path):
    """Write `trace` as CSV text, block by block.

    From `CSV_POOL_MIN_ROWS` rows on, with more than one CPU and where
    processes can fork, the blocks are formatted by forked workers, which
    inherit the trace, and written here in order. The bytes are the same.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    starts = range(0, trace.n_samples, CSV_BLOCK_ROWS)
    workers = _csv_workers()
    if (workers < 2 or trace.n_samples < CSV_POOL_MIN_ROWS
            or "fork" not in multiprocessing.get_all_start_methods()):
        _write_csv_blocks(path, trace.sample_rate, map(partial(_csv_block, trace), starts))
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_pool_init, initargs=(trace,))
    try:
        # the workers fork at the first submit, before the output file is open
        blocks = pool.map(_pool_csv_block, starts, chunksize=CSV_POOL_TASK_BLOCKS)
        _write_csv_blocks(path, trace.sample_rate, blocks)
    finally:
        pool.shutdown(cancel_futures=True)


def _write_csv_blocks(path, sample_rate, blocks):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# sample_rate_hz={sample_rate!r}\ntime_s,value\r\n")
        fh.writelines(blocks)


def check_trace_rate(path, sample_rate, name):
    """Reject, before any work, a rate that the trace file `path` cannot
    hold: a .wav holds an integer rate (`wav_rate`; `name` names the rate)."""
    if os.path.splitext(str(path))[1].lower() == ".wav":
        wav_rate(sample_rate, f"{name} (for {path})")


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
        _write_csv_trace(trace, path)
    else:
        raise InputError(f"unsupported trace extension {ext!r} (use .wav or .csv)")
    meta = {"kind": trace.kind, "sample_rate_hz": trace.sample_rate, "scale": 1.0}
    if extra_meta:
        meta.update(extra_meta)
    side = sidecar_path(path)
    write_json(side, meta)
    return side


def _read_csv_trace(path):
    """(sample rate, values, whether a rate line stated the rate) of a trace CSV.

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
    stated = rate is not None
    if not stated:
        rate = 1.0 / (blocks[0][1, 0] - blocks[0][0, 0])
    return rate, np.concatenate([block[:, 1] for block in blocks]), stated


def read_trace(path, kind=None) -> SampledTrace:
    """Read a WAV or CSV trace, applying any sidecar scale/kind.

    `kind` names the kind the caller expects. It supplies the kind of a file
    without a sidecar; a sidecar that records a different kind is rejected.
    A sidecar's rate must equal the rate the file states (a WAV header or a
    CSV rate line), and gives the rate of a CSV without a rate line.
    """
    path = str(path)
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise FileFormatError(f"{side}: not a JSON sidecar ({exc})") from None
        if not isinstance(meta, dict):
            raise FileFormatError(f"{side}: a sidecar holds a JSON object, "
                                  f"got {type(meta).__name__}")
        for key in ("scale", "sample_rate_hz"):
            value = meta.get(key, 1.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not np.isfinite(value):
                raise FileFormatError(f"{side}: {key} must be a finite number, got {value!r}")
    ext = os.path.splitext(path)[1].lower()
    if ext == ".wav":
        (rate, samples), stated = read_wav(path), True
    elif ext == ".csv":
        rate, samples, stated = _read_csv_trace(path)
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
    if "sample_rate_hz" in meta:
        if stated and meta["sample_rate_hz"] != rate:
            raise FileFormatError(f"{side}: sample_rate_hz {meta['sample_rate_hz']!r} "
                                  f"differs from the rate {rate!r} that {path} states")
        rate = float(meta["sample_rate_hz"])
    samples *= scale  # the readers return a fresh array
    return SampledTrace(rate, samples, resolved_kind)


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
