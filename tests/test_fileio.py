import csv
import json
import multiprocessing
import os
import re
import struct
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from fibertap import BASEBAND, HETERODYNE, PHASE, SampledTrace, fileio
from fibertap.cli import main
from fibertap.errors import ConfigurationError, FileFormatError, InputError
from fibertap.fileio import (
    BUDGET_HEADER,
    CSV_BLOCK_ROWS,
    CSV_POOL_MIN_ROWS,
    MITIGATION_HEADER,
    read_trace,
    read_wav,
    sidecar_path,
    write_csv_table,
    write_trace,
    write_wav,
)
from fibertap.noise import BudgetRow
from fibertap.sensitivity import MitigationRow

from conftest import read_budget_table


def chunk(cid, body, order="<"):
    """A RIFF chunk, with the pad byte that follows an odd-sized body."""
    return cid + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag, bits, channels=1, rate=8000, order="<"):
    align = channels * bits // 8
    return chunk(b"fmt ", struct.pack(order + "HHIIHH", tag, channels, rate,
                                      rate * align, align, bits), order)


def extensible_fmt_chunk(tag, bits, rate=8000):
    """A WAVE_FORMAT_EXTENSIBLE ``fmt `` chunk whose sub-format is `tag`."""
    align = bits // 8
    return chunk(b"fmt ", struct.pack("<HHIIHHHHII", 0xFFFE, 1, rate, rate * align,
                                      align, bits, 22, bits, 4, tag)
                 + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")


def riff(*chunks, magic=b"RIFF", order="<"):
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack(order + "I", len(body)) + body


def rf64(fmt, data):
    """An RF64 file: sizes in a ``ds64`` chunk, 0xFFFFFFFF in their usual places."""
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(fmt) + 8 + len(data),
                                      len(data), len(data) // 4, 0))
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + fmt + b"data\xff\xff\xff\xff" + data


SAMPLES = np.array([0.5, -0.25, 1.0, -1.0, 3e-7], dtype=np.float32)
PCM = np.array([0, 16384, -16384, 32767, -32768], dtype=np.int16)


def assert_rejected(path, error, exit_code, tmp_path, capsys):
    """`read_wav` raises `error` naming the file; `enhance` exits `exit_code`."""
    with pytest.raises(error, match=re.escape(str(path))):
        read_wav(path)
    capsys.readouterr()
    assert main(["enhance", "--in", str(path), "--out", str(tmp_path / "out.wav")]) == exit_code
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out.wav").exists()


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        p = tmp_path / "a.wav"
        write_wav(p, 48000, x)
        rate, back = read_wav(p)
        assert rate == 48000.0
        np.testing.assert_array_equal(back, x)

    def test_pcm16_read(self, tmp_path):
        p = tmp_path / "b.wav"
        data = np.array([0, 16384, -16384, 32767], dtype=np.int16)
        wavfile.write(p, 8000, data)
        rate, back = read_wav(p)
        assert rate == 8000.0
        np.testing.assert_allclose(back, data / 32768.0)

    def test_stereo_rejected(self, tmp_path, capsys):
        p = tmp_path / "c.wav"
        wavfile.write(p, 8000, np.zeros((10, 2), dtype=np.int16))
        assert_rejected(p, InputError, 2, tmp_path, capsys)

    def test_unsupported_dtype_rejected(self, tmp_path, capsys):
        p = tmp_path / "d.wav"
        wavfile.write(p, 8000, np.zeros(10, dtype=np.int32))
        assert_rejected(p, FileFormatError, 3, tmp_path, capsys)

    def test_garbage_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "e.wav"
        p.write_bytes(b"not a wav at all")
        assert_rejected(p, FileFormatError, 3, tmp_path, capsys)

    @pytest.mark.parametrize("content", [
        riff(fmt_chunk(1, 8), chunk(b"data", bytes(range(8)))),
        riff(fmt_chunk(1, 24), chunk(b"data", bytes(range(12)))),
        riff(fmt_chunk(3, 32, order=">"), chunk(b"data", SAMPLES.astype(">f4").tobytes(), ">"),
             magic=b"RIFX", order=">"),
        rf64(fmt_chunk(3, 32), SAMPLES.tobytes()),
        riff(fmt_chunk(3, 32)),
        riff(chunk(b"data", SAMPLES.tobytes()), fmt_chunk(3, 32)),
        riff(fmt_chunk(3, 32), chunk(b"data", SAMPLES.tobytes()))[:-4],
        riff(chunk(b"fmt ", b"\x03\x00\x01\x00"), chunk(b"data", SAMPLES.tobytes())),
        riff(extensible_fmt_chunk(1, 32), chunk(b"data", PCM.tobytes())),
        riff(fmt_chunk(3, 32), chunk(b"data", np.zeros(1000, np.float32).tobytes() + b"\0" * 3)),
        riff(fmt_chunk(1, 16), chunk(b"data", PCM.tobytes() + b"\1")),
        riff(fmt_chunk(3, 32, rate=0), chunk(b"data", SAMPLES.tobytes())),
    ], ids=["pcm8", "pcm24", "rifx", "rf64", "no-data", "data-before-fmt",
            "data-past-end", "short-fmt", "extensible-pcm32", "float32-partial-sample",
            "pcm16-partial-sample", "zero-rate"])
    def test_malformed_or_unsupported_rejected(self, tmp_path, capsys, content):
        p = tmp_path / "bad.wav"
        p.write_bytes(content)
        assert_rejected(p, FileFormatError, 3, tmp_path, capsys)

    @pytest.mark.parametrize("rate", [8000, 44100, 400000])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 2 ** 16 + 1])
    def test_writer_bytes_equal_scipy(self, tmp_path, n, rate):
        x = np.random.default_rng(n).standard_normal(n)
        write_wav(tmp_path / "ours.wav", rate, x)
        wavfile.write(tmp_path / "scipy.wav", rate, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("content", [
        riff(fmt_chunk(1, 16), chunk(b"data", PCM.tobytes())),
        riff(fmt_chunk(3, 32), chunk(b"data", SAMPLES.tobytes())),
        riff(fmt_chunk(3, 64), chunk(b"data", SAMPLES.astype(np.float64).tobytes())),
        riff(extensible_fmt_chunk(3, 32), chunk(b"data", SAMPLES.tobytes())),
        riff(extensible_fmt_chunk(1, 16), chunk(b"data", PCM.tobytes())),
        riff(fmt_chunk(1, 16), chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00abcd\x00"),
             chunk(b"fact", b"\x05\x00\x00\x00"), chunk(b"data", PCM.tobytes())),
        riff(chunk(b"odd ", b"xyz"), fmt_chunk(3, 32), chunk(b"junk", b"q"),
             chunk(b"data", SAMPLES.tobytes()), chunk(b"LIST", b"INFO")),
    ], ids=["pcm16", "float32", "float64", "extensible-float32", "extensible-pcm16",
            "list-chunk", "odd-sized-chunks"])
    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_reader_equals_scipy(self, tmp_path, content):
        p = tmp_path / "in.wav"
        p.write_bytes(content)
        rate, samples = read_wav(p)
        srate, data = wavfile.read(p)
        expected = data.astype(np.float64) / (32768.0 if data.dtype == np.int16 else 1.0)
        assert rate == float(srate)
        assert samples.dtype == np.float64
        np.testing.assert_array_equal(samples, expected)

    # a WAV header holds an integer rate: the writer refuses any other
    # rather than rounding it
    @given(x=arrays(np.float64, st.integers(0, 300), elements=st.floats(width=32)),
           rate=st.one_of(st.integers(1, 10 ** 6).map(float), st.floats(1.0, 1e6)))
    def test_round_trip_property(self, tmp_path_factory, x, rate):
        p = tmp_path_factory.getbasetemp() / "round_trip.wav"
        if not rate.is_integer():
            with pytest.raises(ConfigurationError, match=f"{rate!r} is not an integer"):
                write_wav(p, rate, x)
            return
        write_wav(p, rate, x)
        back_rate, back = read_wav(p)
        assert back_rate == rate
        np.testing.assert_array_equal(back, x.astype(np.float32))


class TestTraceFiles:
    def test_baseband_trace_not_written(self, tmp_path):
        tr = SampledTrace(40e3, np.ones(8, dtype=complex), BASEBAND)
        with pytest.raises(InputError, match="complex baseband traces have no file"):
            write_trace(tr, tmp_path / "bb.csv")
        assert list(tmp_path.iterdir()) == []

    def test_wav_trace_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(2)
        tr = SampledTrace(400e3, rng.standard_normal(256).astype(np.float32),
                          HETERODYNE)
        p = tmp_path / "het.wav"
        side = write_trace(tr, p)
        with open(side) as fh:
            meta = json.load(fh)
        assert meta["kind"] == HETERODYNE
        assert meta["scale"] == 1.0
        back = read_trace(p)
        assert back.kind == HETERODYNE
        assert back.sample_rate == 400e3
        np.testing.assert_array_equal(back.samples, tr.samples)

    def test_csv_trace_round_trip(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([0.5, -1.25, 3.0e-7]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        back = read_trace(p)
        assert back.kind == PHASE
        assert back.sample_rate == 1000.0
        np.testing.assert_array_equal(back.samples, tr.samples)

    def test_csv_without_sidecar_uses_header_rate(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([1.0, 2.0, 3.0]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        (tmp_path / sidecar_path(p).split("/")[-1]).unlink()
        back = read_trace(p, kind=PHASE)
        assert back.sample_rate == 1000.0

    def test_kind_contradicting_sidecar_rejected(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([1.0, 2.0, 3.0]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        with pytest.raises(InputError, match="heterodyne"):
            read_trace(p, kind=HETERODYNE)
        assert read_trace(p, kind=PHASE).kind == PHASE

    def test_kind_required_without_sidecar(self, tmp_path):
        p = tmp_path / "x.wav"
        write_wav(p, 8000, np.zeros(16))
        with pytest.raises(InputError):
            read_trace(p)

    def test_normalized_trace_rescaled_on_read(self, tmp_path):
        p = tmp_path / "n.wav"
        write_wav(p, 8000, np.array([0.0, 0.5, -1.0]))
        (tmp_path / "n.wav.meta.json").write_text(
            '{"kind": "phase", "sample_rate_hz": 8000.0, "scale": 2.0}')
        back = read_trace(p)
        assert back.kind == PHASE
        np.testing.assert_array_equal(back.samples, [0.0, 1.0, -2.0])

    @pytest.mark.parametrize("text,message", [
        ('{"kind": "phase",', "not a JSON sidecar"),
        (b'{"kind": "\xff"}', "not a JSON sidecar"),
        ('["phase", 8000.0]', "a sidecar holds a JSON object, got list"),
        ('"phase"', "a sidecar holds a JSON object, got str"),
        ('{"kind": "phase", "scale": "abc"}', "scale must be a finite number, got 'abc'"),
        ('{"kind": "phase", "scale": "2.0"}', "scale must be a finite number, got '2.0'"),
        ('{"kind": "phase", "scale": null}', "scale must be a finite number, got None"),
        ('{"kind": "phase", "scale": true}', "scale must be a finite number, got True"),
        ('{"kind": "phase", "scale": NaN}', "scale must be a finite number, got nan"),
        ('{"kind": "phase", "sample_rate_hz": [8000]}',
         "sample_rate_hz must be a finite number, got [8000]"),
        ('{"kind": "phase", "sample_rate_hz": Infinity}',
         "sample_rate_hz must be a finite number, got inf"),
    ], ids=["truncated", "not-utf8", "list", "string", "scale-text", "scale-number-text",
            "scale-null", "scale-bool", "scale-nan", "rate-list", "rate-infinity"])
    def test_malformed_sidecar_rejected(self, tmp_path, text, message):
        p = tmp_path / "n.wav"
        write_wav(p, 8000, np.array([0.0, 0.5, -1.0]))
        side = tmp_path / "n.wav.meta.json"
        if isinstance(text, bytes):
            side.write_bytes(text)
        else:
            side.write_text(text)
        with pytest.raises(FileFormatError, match=re.escape(f"{side}: {message}")):
            read_trace(p)

    def test_demod_exits_3_on_a_malformed_sidecar(self, tmp_path, capsys):
        p = tmp_path / "het.wav"
        write_trace(SampledTrace(400e3, np.zeros(64), HETERODYNE), p)
        (tmp_path / "het.wav.meta.json").write_text('{"kind": "heterodyne", "scale": "x"}')
        out = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(p), "--out", str(out)]) == 3
        assert "scale must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["het.wav", "het.csv"])
    def test_sidecar_rate_contradicting_the_file_exits_3(self, tmp_path, capsys, name):
        # a WAV header and a CSV rate line each state the rate themselves
        p = tmp_path / name
        write_trace(SampledTrace(400e3, np.zeros(64), HETERODYNE), p)
        side = tmp_path / (name + ".meta.json")
        side.write_text('{"kind": "heterodyne", "sample_rate_hz": 123456}')
        with pytest.raises(FileFormatError, match=re.escape(
                f"{side}: sample_rate_hz 123456 differs from the rate 400000")):
            read_trace(p)
        out = tmp_path / "rec.csv"
        assert main(["demod", "--in", str(p), "--out", str(out)]) == 3
        assert "sample_rate_hz 123456 differs" in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_gives_the_rate_of_a_csv_without_a_rate_line(self, tmp_path):
        # the times alone would give 4 S/s
        p = tmp_path / "t.csv"
        p.write_text("time_s,value\n0.0,1.0\n0.25,2.0\n0.5,3.0\n")
        (tmp_path / "t.csv.meta.json").write_text(
            '{"kind": "phase", "sample_rate_hz": 8.0}')
        assert read_trace(p).sample_rate == 8.0

    def test_unknown_extension_rejected(self, tmp_path):
        tr = SampledTrace(8000.0, np.zeros(4), PHASE)
        with pytest.raises(InputError):
            write_trace(tr, tmp_path / "t.dat")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_read_holds_the_samples_twice_at_most(self, tmp_path, dtype):
        # the float64 samples and their copy into the trace, 16 B, plus the
        # trace's finiteness mask; scaling into a third array made it 25 B
        n = 400_000
        p = tmp_path / "x.wav"
        wavfile.write(p, 8000, np.random.default_rng(1).standard_normal(n).astype(dtype))
        read_trace(p, kind=PHASE)
        tracemalloc.start()
        try:
            read_trace(p, kind=PHASE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * n + 64 * 2 ** 10


class TestCsvTraceFormat:
    """The trace CSV layout: a ``#`` rate line, a header, then CRLF rows."""

    def write(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode())
        return p

    def test_writer_golden_bytes(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([0.5, -1.25, 3.0e-7]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        assert p.read_bytes() == (b"# sample_rate_hz=1000.0\n"
                                  b"time_s,value\r\n"
                                  b"0.0,0.5\r\n"
                                  b"0.001,-1.25\r\n"
                                  b"0.002,3e-07\r\n")

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 2 * CSV_BLOCK_ROWS + 3])
    def test_writer_round_trips_every_length(self, tmp_path, n):
        tr = SampledTrace(3.0, np.random.default_rng(n).standard_normal(n), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        lines = p.read_bytes().split(b"\r\n")
        assert len(lines) == n + 2 and lines[-1] == b""
        if n >= 2:
            np.testing.assert_array_equal(read_trace(p).samples, tr.samples)

    def test_three_fields_rejected(self, tmp_path):
        p = self.write(tmp_path, "time_s,value\n0.0,1.0\n0.5,2.0,3.0\n1.0,3.0\n")
        with pytest.raises(FileFormatError, match="expected 'time,value' rows"):
            read_trace(p, kind=PHASE)

    @pytest.mark.parametrize("body", ["", "0.0,1.0\n"])
    def test_fewer_than_two_rows_rejected(self, tmp_path, body):
        p = self.write(tmp_path, "# sample_rate_hz=2.0\ntime_s,value\n" + body)
        with pytest.raises(FileFormatError, match="at least two samples"):
            read_trace(p, kind=PHASE)

    def test_blank_lines_tolerated(self, tmp_path):
        p = self.write(tmp_path, "# sample_rate_hz=2.0\n\ntime_s,value\r\n\r\n"
                                 "0.0,1.0\r\n\n0.5,-2.0\r\n  \n1.0,4.0\n\n")
        back = read_trace(p, kind=PHASE)
        assert back.sample_rate == 2.0
        np.testing.assert_array_equal(back.samples, [1.0, -2.0, 4.0])

    def test_rate_from_time_column_without_header(self, tmp_path):
        p = self.write(tmp_path, "0.0,1.0\n0.25,2.0\n0.5,3.0\n")
        back = read_trace(p, kind=PHASE)
        assert back.sample_rate == 4.0
        np.testing.assert_array_equal(back.samples, [1.0, 2.0, 3.0])

    def test_header_without_rate_line(self, tmp_path):
        p = self.write(tmp_path, "time_s,value\r\n0.0,1.0\r\n0.125,2.0\r\n")
        assert read_trace(p, kind=PHASE).sample_rate == 8.0

    def test_non_numeric_value_names_file(self, tmp_path):
        p = self.write(tmp_path, "# sample_rate_hz=400000.0\ntime_s,value\r\n"
                                 "0.0,1.0\r\n2.5e-06,abc\r\n5e-06,1.0\r\n")
        with pytest.raises(FileFormatError, match="t.csv"):
            read_trace(p, kind=PHASE)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")


class TestCsvWorkerPool:
    """From `CSV_POOL_MIN_ROWS` rows on, forked workers format the blocks."""

    @staticmethod
    def use_workers(monkeypatch, n):
        monkeypatch.setattr(fileio, "_csv_workers", lambda: n)

    @pytest.mark.parametrize("n", [
        0, 1, CSV_POOL_MIN_ROWS - 1, CSV_POOL_MIN_ROWS, CSV_POOL_MIN_ROWS + 1,
        9 * CSV_BLOCK_ROWS - 1, 9 * CSV_BLOCK_ROWS + 1,
        12 * CSV_BLOCK_ROWS - 1, 12 * CSV_BLOCK_ROWS + 1])
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, n):
        tr = SampledTrace(400e3, np.random.default_rng(n).standard_normal(n), HETERODYNE)
        files = []
        for workers in (1, 2, 3):
            self.use_workers(monkeypatch, workers)
            files.append(tmp_path / f"w{workers}.csv")
            write_trace(tr, files[-1])
            assert multiprocessing.active_children() == []
        assert files[1].read_bytes() == files[0].read_bytes()
        assert files[2].read_bytes() == files[0].read_bytes()

    @needs_fork
    def test_worker_exception_surfaces(self, tmp_path, monkeypatch):
        def fail(trace, start):
            raise ValueError(os.getpid())

        self.use_workers(monkeypatch, 2)
        monkeypatch.setattr(fileio, "_csv_block", fail)
        tr = SampledTrace(400e3, np.zeros(CSV_POOL_MIN_ROWS), HETERODYNE)
        with pytest.raises(ValueError) as info:
            write_trace(tr, tmp_path / "t.csv")
        assert info.value.args[0] != os.getpid()  # raised in a worker
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_killed_worker_raises_instead_of_hanging(self, tmp_path, monkeypatch):
        self.use_workers(monkeypatch, 2)
        monkeypatch.setattr(fileio, "_csv_block", lambda trace, start: os._exit(3))
        tr = SampledTrace(400e3, np.zeros(CSV_POOL_MIN_ROWS), HETERODYNE)
        raised = []

        def write():
            try:
                write_trace(tr, tmp_path / "t.csv")
            except Exception as exc:
                raised.append(exc)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writer.join(timeout=120)
        assert not writer.is_alive(), "write_trace hung after a worker died"
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)


class TestTables:
    def test_budget_round_trip(self, tmp_path):
        rows = [BudgetRow(10.0, 1e-6, 0.0, 1e-6, 12.5),
                BudgetRow(100.0, 3e-6, 4e-6, 5e-6, 25.0)]
        p = tmp_path / "budget.csv"
        write_csv_table(p, BUDGET_HEADER, rows)
        first_line = p.read_text().splitlines()[0]
        assert first_line == ",".join(BUDGET_HEADER)
        back = read_budget_table(p)
        assert back == rows

    def test_budget_handles_minus_inf(self, tmp_path):
        rows = [BudgetRow(0.0, 0.0, 0.0, 0.0, float("-inf"))]
        p = tmp_path / "budget.csv"
        write_csv_table(p, BUDGET_HEADER, rows)
        back = read_budget_table(p)
        assert back[0].limit_db == -np.inf

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    def test_json_is_standard_or_not_written(self, tmp_path, value):
        # json's default writes NaN, Infinity and -Infinity, which no JSON
        # parser but Python's reads
        p = tmp_path / "table.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.write_json(p, [{"limit_db": value}])
        assert not p.exists()
        fileio.write_json(p, [{"limit_db": 1.0}])
        assert p.read_text() == '[\n  {\n    "limit_db": 1.0\n  }\n]\n'

    def test_mitigation_header(self, tmp_path):
        rows = [MitigationRow("base", 3.0, 1.0, 0.2, 1e-3, 0.0, 0.0)]
        p = tmp_path / "mit.csv"
        write_csv_table(p, MITIGATION_HEADER, rows)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("label,sensing_length_m")
        assert len(lines) == 2

    def test_mitigation_label_with_comma_is_quoted(self, tmp_path):
        rows = [MitigationRow("steel, 10x", 3.0, 10.0, 0.2, 1e-4, -20.0, 0.0)]
        p = tmp_path / "mit.csv"
        write_csv_table(p, MITIGATION_HEADER, rows)
        with open(p, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[1] == ["steel, 10x", "3.0", "10.0", "0.2", "0.0001", "-20.0", "0.0"]
