import csv
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from fibertap import AUDIO, BASEBAND, HETERODYNE, PHASE, SampledTrace, fileio
from fibertap.cli import main
from fibertap.errors import ConfigurationError, FileFormatError, InputError
from fibertap.fileio import (
    BUDGET_HEADER,
    CSV_BLOCK_ROWS,
    MITIGATION_HEADER,
    read_trace,
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
    """`read_trace` raises `error` naming the file; `enhance` exits `exit_code`."""
    with pytest.raises(error, match=re.escape(str(path))):
        read_trace(path, kind=AUDIO)
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
        back = read_trace(p, kind=AUDIO)
        assert back.sample_rate == 48000.0
        np.testing.assert_array_equal(back.samples, x)

    def test_pcm16_read(self, tmp_path):
        p = tmp_path / "b.wav"
        data = np.array([0, 16384, -16384, 32767], dtype=np.int16)
        wavfile.write(p, 8000, data)
        back = read_trace(p, kind=AUDIO)
        assert back.sample_rate == 8000.0
        np.testing.assert_allclose(back.samples, data / 32768.0)

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
        back = read_trace(p, kind=AUDIO)
        srate, data = wavfile.read(p)
        expected = data.astype(np.float64) / (32768.0 if data.dtype == np.int16 else 1.0)
        assert back.sample_rate == float(srate)
        assert back.samples.dtype == np.float64
        np.testing.assert_array_equal(back.samples, expected)

    # the header's byte rate, 4 bytes a sample, is a 32-bit field: past it
    # the writer raised struct.error
    @pytest.mark.parametrize("rate", [2 ** 30, 2 ** 32 - 1, 2 ** 32])
    def test_a_rate_past_the_header_is_refused(self, tmp_path, rate):
        p = tmp_path / "fast.wav"
        with pytest.raises(ConfigurationError, match=f"rate {rate} is past the 1073741823 S/s"):
            write_wav(p, rate, np.zeros(4))
        assert not p.exists()
        write_wav(p, 2 ** 30 - 1, np.zeros(4))
        assert read_trace(p, kind=AUDIO).sample_rate == 2 ** 30 - 1

    # a WAV header holds an integer rate: the writer refuses any other
    # rather than rounding it. NaN and inf read back as written, as the
    # parser under `read_trace` gives them
    @given(x=arrays(np.float64, st.integers(0, 300), elements=st.floats(width=32)),
           rate=st.one_of(st.integers(1, 10 ** 6).map(float), st.floats(1.0, 1e6)))
    def test_round_trip_property(self, tmp_path_factory, x, rate):
        p = tmp_path_factory.getbasetemp() / "round_trip.wav"
        if not rate.is_integer():
            with pytest.raises(ConfigurationError, match=f"{rate!r} is not an integer"):
                write_wav(p, rate, x)
            return
        write_wav(p, rate, x)
        back_rate, back = fileio._read_wav(p)
        assert back_rate == rate
        np.testing.assert_array_equal(back, x.astype(np.float32))


class TestTraceFiles:
    def test_baseband_trace_not_written(self, tmp_path):
        tr = SampledTrace(40e3, np.ones(8, dtype=complex), BASEBAND)
        with pytest.raises(InputError, match="complex baseband traces have no file"):
            write_trace(tr, tmp_path / "bb.csv")
        assert list(tmp_path.iterdir()) == []

    def test_read_samples_are_handed_to_the_trace(self, tmp_path, monkeypatch):
        p = tmp_path / "het.wav"
        write_trace(SampledTrace(400e3, np.ones(8), HETERODYNE), p)
        read = []

        def reading(path):
            rate, samples = wav(path)
            read.append(samples)
            return rate, samples

        wav = fileio._read_wav
        monkeypatch.setattr(fileio, "_read_wav", reading)
        tr = read_trace(p, kind=HETERODYNE)
        assert np.shares_memory(tr.samples, read[0]) and not read[0].flags.writeable

    def test_wav_trace_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tr = SampledTrace(400e3, rng.standard_normal(256).astype(np.float32),
                          HETERODYNE)
        p = tmp_path / "het.wav"
        write_trace(tr, p)
        back = read_trace(p, kind=HETERODYNE)
        assert back.kind == HETERODYNE
        assert back.sample_rate == 400e3
        np.testing.assert_array_equal(back.samples, tr.samples)

    def test_csv_trace_round_trip(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([0.5, -1.25, 3.0e-7]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        back = read_trace(p, kind=PHASE)
        assert back.kind == PHASE
        assert back.sample_rate == 1000.0
        np.testing.assert_array_equal(back.samples, tr.samples)

    # the CLI writes a trace's sidecar (`fileio.write_sidecar`); `write_trace`
    # writes the trace alone
    def test_csv_without_sidecar_uses_header_rate(self, tmp_path):
        tr = SampledTrace(1000.0, np.array([1.0, 2.0, 3.0]), PHASE)
        p = tmp_path / "phase.csv"
        write_trace(tr, p)
        assert [q.name for q in tmp_path.iterdir()] == ["phase.csv"]
        back = read_trace(p, kind=PHASE)
        assert back.sample_rate == 1000.0

    # a sidecar's kind, scale and rate once decided the exit: the first
    # exited 3 as "not a JSON sidecar" and the second 3 on its scale (2 on
    # its kind without it). Each record is demodulated, or, at three edge
    # guards, rejected (exit 2)
    @pytest.mark.parametrize("side", ['{"kind": "phase",',
                                      '{"kind": "phase", "scale": 0, "sample_rate_hz": 5}'],
                             ids=["not-json", "phase-scale-0-rate-5"])
    @pytest.mark.parametrize("name", ["het.wav", "het.csv"])
    @pytest.mark.parametrize("n", [40000, 1110])
    def test_a_sidecar_next_to_an_input_changes_nothing(self, tmp_path, capsys, side, name, n):
        het = tmp_path / name
        t = np.arange(n) / 400e3
        write_trace(SampledTrace(400e3, np.cos(2 * np.pi * 25e3 * t), HETERODYNE), het)
        runs = []
        for run in ("own", "hostile"):
            if run == "hostile":
                (tmp_path / (name + ".meta.json")).write_text(side)
            outs = [tmp_path / run / "rec.wav", tmp_path / run / "phase.csv"]
            outs[0].parent.mkdir()
            code = main(["demod", "--in", str(het), "--out", str(outs[0]),
                         "--phase-csv", str(outs[1])])
            runs.append((code, [q.read_bytes() if q.exists() else None for q in outs]))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if n == 40000 else 2)

    # the times i / rate past the float range made numpy warn of an overflow
    # as the writer formatted them and the reader checked them
    def test_times_past_the_float_range_read_as_written(self, tmp_path):
        p = tmp_path / "slow.csv"
        write_trace(SampledTrace(5e-324, np.array([1.0, -2.0, 3.0]), PHASE), p)
        assert p.read_bytes().split(b"\r\n")[1:4] == [b"0.0,1.0", b"inf,-2.0", b"inf,3.0"]
        back = read_trace(p, kind=PHASE)
        assert back.sample_rate == 5e-324
        np.testing.assert_array_equal(back.samples, [1.0, -2.0, 3.0])

    #: Row counts at and next to the edges of the CSV writer's and reader's blocks
    EDGES = [k * CSV_BLOCK_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)]

    # a CSV holds the rate and every value exactly; a WAV an integer rate
    # and float32 values
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), ext=st.sampled_from(["csv", "wav"]),
           n=st.one_of(st.sampled_from(EDGES), st.integers(2, 3 * CSV_BLOCK_ROWS + 1)))
    def test_write_then_read_gives_the_trace(self, tmp_path_factory, data, ext, n):
        if ext == "csv":
            rate = data.draw(st.floats(0, exclude_min=True, allow_infinity=False), "rate")
            elements = st.floats(allow_nan=False, allow_infinity=False)
        else:
            rate = float(data.draw(st.integers(1, 2 ** 30 - 1), "rate"))
            f32 = float(np.finfo(np.float32).max)
            elements = st.floats(-f32, f32)
        values = data.draw(arrays(np.float64, n, elements=elements), "values")
        p = tmp_path_factory.getbasetemp() / f"round_trip.{ext}"
        write_trace(SampledTrace(rate, values, PHASE), p)
        back = read_trace(p, kind=PHASE)
        assert back.kind == PHASE and back.sample_rate == rate
        expected = values if ext == "csv" else values.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.samples.view(np.uint64), expected.view(np.uint64))

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
            np.testing.assert_array_equal(read_trace(p, kind=PHASE).samples, tr.samples)

    def test_three_fields_rejected(self, tmp_path):
        p = self.write(tmp_path, "# sample_rate_hz=2.0\ntime_s,value\n"
                                 "0.0,1.0\n0.5,2.0,3.0\n1.0,3.0\n")
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

    def test_non_numeric_value_names_file(self, tmp_path):
        p = self.write(tmp_path, "# sample_rate_hz=400000.0\ntime_s,value\r\n"
                                 "0.0,1.0\r\n2.5e-06,abc\r\n5e-06,1.0\r\n")
        with pytest.raises(FileFormatError, match="t.csv"):
            read_trace(p, kind=PHASE)

    # each exited 2 with "sample_rate must be positive", naming no file;
    # "abc" was reported as a bad row, equal times divided by zero, and of
    # two rate lines the later won
    @pytest.mark.parametrize("text,message", [
        ("# sample_rate_hz=0\n0.0,1.0\n0.5,2.0\n",
         "rate line '# sample_rate_hz=0' gives a sample rate of 0.0"),
        ("# sample_rate_hz=-400000\n0.0,1.0\n0.5,2.0\n",
         "rate line '# sample_rate_hz=-400000' gives a sample rate of -400000.0"),
        ("# sample_rate_hz=nan\n0.0,1.0\n0.5,2.0\n",
         "rate line '# sample_rate_hz=nan' gives a sample rate of nan"),
        ("# sample_rate_hz=inf\n0.0,1.0\n0.5,2.0\n",
         "rate line '# sample_rate_hz=inf' gives a sample rate of inf"),
        ("# sample_rate_hz=abc\n0.0,1.0\n0.5,2.0\n",
         "rate line '# sample_rate_hz=abc' does not hold a number"),
        ("# sample_rate_hz=400000.0\n# sample_rate_hz=40000.0\n0.0,1.0\n2.5e-06,2.0\n",
         "rate lines disagree: 400000.0 and then 40000.0"),
    ], ids=["line-0", "line-negative", "line-nan", "line-inf", "line-text",
            "lines-disagree"])
    def test_a_bad_rate_exits_3_naming_its_file(self, tmp_path, capsys, text, message):
        p = self.write(tmp_path, text)
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: {message}")):
            read_trace(p, kind=HETERODYNE)
        out = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(p), "--out", str(out)]) == 3
        assert f"{p}: {message}" in capsys.readouterr().err
        assert not out.exists()

    # a CSV without a rate line took its rate from its first two times, no
    # later time was checked, and a rate line after the first row was
    # skipped as a comment
    @pytest.mark.parametrize("text,message", [
        ("time_s,value\r\n0.0,1.0\r\n0.5,2.0\r\n",
         "no '# sample_rate_hz=' line before the first row"),
        ("# sample_rate_hz=400000.0\n0.0,1.0\n7.0,2.0\n-3.0,3.0\n",
         "row 1 holds the time 7.0, not 2.5e-06"),
        ("# sample_rate_hz=400000.0\n0.0,1.0\n2.5e-06,2.0\n5e-06,3.0\n2.5e-06,4.0\n",
         "row 3 holds the time 2.5e-06, not 7.5e-06"),
        ("# sample_rate_hz=2.0\n0.0,1.0\n0.5,2.0\n# sample_rate_hz=5\n1.0,3.0\n",
         "expected 'time,value' rows of numbers"),
    ], ids=["no-rate-line", "wrong-time", "time-repeated", "rate-line-after-a-row"])
    def test_a_file_off_the_layout_exits_3_writing_nothing(self, tmp_path, capsys, text,
                                                           message):
        p = self.write(tmp_path, text)
        with pytest.raises(FileFormatError, match=re.escape(f"{p}: {message}")):
            read_trace(p, kind=HETERODYNE)
        assert main(["demod", "--in", str(p), "--out", str(tmp_path / "rec.wav"),
                     "--phase-csv", str(tmp_path / "p.csv")]) == 3
        assert f"{p}: {message}" in capsys.readouterr().err
        assert [q.name for q in tmp_path.iterdir()] == ["t.csv"]

    def test_times_are_checked_past_the_first_block(self, tmp_path):
        tr = SampledTrace(3.0, np.zeros(2 * CSV_BLOCK_ROWS + 5), PHASE)
        p = tmp_path / "t.csv"
        write_trace(tr, p)
        lines = p.read_bytes().split(b"\r\n")
        row = CSV_BLOCK_ROWS + 7
        lines[row + 1] = repr((row + 1) / 3.0).encode() + b",0.0"  # the next row's time
        p.write_bytes(b"\r\n".join(lines))
        with pytest.raises(FileFormatError, match=f"row {row} holds the time"):
            read_trace(p, kind=PHASE)

    # np.loadtxt reads a block at a time, and its message counted rows from
    # the block's start: 'abc' in row 4106 read "at row 10, column 2", and a
    # rate line there "at row 11; use `usecols` to select a subset"
    @pytest.mark.parametrize("line", ["{t!r},abc", "# sample_rate_hz=400000.0"],
                             ids=["text-value", "rate-line"])
    def test_a_bad_row_past_the_first_block_is_named_by_its_row(self, tmp_path, capsys,
                                                                line):
        rate, row = 400e3, CSV_BLOCK_ROWS + 10
        p = tmp_path / "t.csv"
        write_trace(SampledTrace(rate, np.zeros(2 * CSV_BLOCK_ROWS + 5), HETERODYNE), p)
        lines = p.read_bytes().split(b"\r\n")
        bad = line.format(t=row / rate)
        lines[row + 1] = bad.encode()
        p.write_bytes(b"\r\n".join(lines))
        message = (f"{p}: expected 'time,value' rows of numbers; row {row} "
                   f"(at {row / rate!r} s) reads {bad!r}")
        with pytest.raises(FileFormatError) as err:
            read_trace(p, kind=HETERODYNE)
        assert str(err.value) == message
        assert main(["demod", "--in", str(p), "--out", str(tmp_path / "rec.wav")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_rate_lines_that_agree_are_read(self, tmp_path):
        p = self.write(tmp_path, "# sample_rate_hz=4e5\n# sample_rate_hz=400000.0\n"
                                 "0.0,1.0\n2.5e-06,2.0\n")
        assert read_trace(p, kind=PHASE).sample_rate == 400e3

    # the writer's bytes, across block edges and for the values whose repr
    # is least regular, against one f-string per row
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308]

    EDGES = [k * CSV_BLOCK_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from(EDGES), st.integers(0, 3 * CSV_BLOCK_ROWS + 1)),
           seed=st.integers(0, 2 ** 32 - 1),
           rate=st.sampled_from([3.0, 44100.0, 400e3, 1 / 3]),
           special=st.lists(st.tuples(st.integers(0, 3 * CSV_BLOCK_ROWS),
                                      st.sampled_from(SPECIAL)), max_size=12))
    def test_writer_bytes_equal_a_row_by_row_reference(self, tmp_path_factory, n, seed,
                                                        rate, special):
        values = np.random.default_rng(seed).standard_normal(n)
        if n:
            for i, v in special:
                values[i % n] = v
        p = tmp_path_factory.getbasetemp() / "reference.csv"
        write_trace(SampledTrace(rate, values, PHASE), p)
        head = f"# sample_rate_hz={rate!r}\ntime_s,value\r\n"
        rows = "".join([f"{i / rate!r},{v!r}\r\n" for i, v in enumerate(values.tolist())])
        assert p.read_bytes() == (head + rows).encode()
        if n >= 2:
            back = read_trace(p, kind=PHASE)
            assert back.sample_rate == rate
            np.testing.assert_array_equal(back.samples.view(np.uint64), values.view(np.uint64))


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
