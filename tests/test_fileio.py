import csv
import json

import numpy as np
import pytest
from scipy.io import wavfile

from fibertap import HETERODYNE, PHASE, SampledTrace
from fibertap.errors import FileFormatError, InputError
from fibertap.fileio import (
    BUDGET_HEADER,
    CSV_BLOCK_ROWS,
    MITIGATION_HEADER,
    read_budget_csv,
    read_trace,
    read_wav,
    sidecar_path,
    write_csv_table,
    write_trace,
    write_wav,
)
from fibertap.noise import BudgetRow
from fibertap.sensitivity import MitigationRow


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

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "c.wav"
        wavfile.write(p, 8000, np.zeros((10, 2), dtype=np.int16))
        with pytest.raises(InputError):
            read_wav(p)

    def test_unsupported_dtype_rejected(self, tmp_path):
        p = tmp_path / "d.wav"
        wavfile.write(p, 8000, np.zeros(10, dtype=np.int32))
        with pytest.raises(FileFormatError):
            read_wav(p)

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "e.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises(FileFormatError):
            read_wav(p)


class TestTraceFiles:
    def test_wav_trace_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(2)
        tr = SampledTrace(400e3, rng.standard_normal(256).astype(np.float32),
                          HETERODYNE)
        p = tmp_path / "het.wav"
        side = write_trace(tr, p)
        meta = json.loads(open(side).read())
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

    def test_unknown_extension_rejected(self, tmp_path):
        tr = SampledTrace(8000.0, np.zeros(4), PHASE)
        with pytest.raises(InputError):
            write_trace(tr, tmp_path / "t.dat")


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


class TestTables:
    def test_budget_round_trip(self, tmp_path):
        rows = [BudgetRow(10.0, 1e-6, 0.0, 1e-6, 12.5),
                BudgetRow(100.0, 3e-6, 4e-6, 5e-6, 25.0)]
        p = tmp_path / "budget.csv"
        write_csv_table(p, BUDGET_HEADER, rows)
        first_line = open(p).readline().strip()
        assert first_line == ",".join(BUDGET_HEADER)
        back = read_budget_csv(p)
        assert back == rows

    def test_budget_handles_minus_inf(self, tmp_path):
        rows = [BudgetRow(0.0, 0.0, 0.0, 0.0, float("-inf"))]
        p = tmp_path / "budget.csv"
        write_csv_table(p, BUDGET_HEADER, rows)
        back = read_budget_csv(p)
        assert back[0].limit_db == -np.inf

    def test_mitigation_header(self, tmp_path):
        rows = [MitigationRow("base", 3.0, 1.0, 0.2, 1e-3, 0.0, 0.0)]
        p = tmp_path / "mit.csv"
        write_csv_table(p, MITIGATION_HEADER, rows)
        lines = open(p).read().splitlines()
        assert lines[0].startswith("label,sensing_length_m")
        assert len(lines) == 2

    def test_mitigation_label_with_comma_is_quoted(self, tmp_path):
        rows = [MitigationRow("steel, 10x", 3.0, 10.0, 0.2, 1e-4, -20.0, 0.0)]
        p = tmp_path / "mit.csv"
        write_csv_table(p, MITIGATION_HEADER, rows)
        with open(p, newline="") as fh:
            back = list(csv.reader(fh))
        assert back[1] == ["steel, 10x", "3.0", "10.0", "0.2", "0.0001", "-20.0", "0.0"]
