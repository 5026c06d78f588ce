import csv
import json
import os
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import chirp

from fibertap import (
    AUDIO,
    PHASE,
    SampledTrace,
    cli,
    decimate_to_audio,
    default_config,
    edge_guard,
    errors,
    highpass,
    load_config,
    spl_to_pressure,
    voice_to_phase,
)
from fibertap.cli import main
from fibertap.config import dump_config
from fibertap.fileio import read_trace, read_wav

from conftest import read_budget_table

FS = 400000


def write_chirp(path, duration=0.5, f0=500.0, f1=5000.0):
    t = np.arange(int(FS * duration)) / FS
    wavfile.write(path, FS, chirp(t, f0, duration, f1).astype(np.float32))


def quiet_config(tmp_path):
    """A config file that turns off noise injection in `simulate`."""
    path = tmp_path / "quiet.yaml"
    path.write_text("noise:\n  enabled: false\n")
    return path


def manifest_of(out_path):
    with open(str(out_path) + ".manifest.json") as fh:
        return json.load(fh)


@pytest.fixture()
def chirp_wav(tmp_path):
    p = tmp_path / "src.wav"
    write_chirp(p)
    return p


class TestSimulate:
    def test_ok_run_writes_output_and_manifest(self, tmp_path, chirp_wav):
        out = tmp_path / "het.wav"
        rc = main(["simulate", "--audio", str(chirp_wav), "--out", str(out),
                   "--seed", "3", "--level-db", "70"])
        assert rc == 0
        assert out.exists()
        m = manifest_of(out)
        assert m["command"] == "simulate"
        assert m["args"]["seed"] == 3
        assert m["config_digest"]

    def test_manifest_records_the_level(self, tmp_path, chirp_wav):
        levels = []
        for level in ("60", "70"):
            out = tmp_path / f"het{level}.wav"
            assert main(["simulate", "--audio", str(chirp_wav), "--out", str(out),
                         "--seed", "3", "--level-db", level]) == 0
            levels.append(manifest_of(out)["args"]["level_db"])
        assert levels == [60.0, 70.0]

    def test_deterministic_rerun(self, tmp_path, chirp_wav):
        out1, out2 = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (out1, out2):
            assert main(["simulate", "--audio", str(chirp_wav), "--out", str(out),
                         "--seed", "11", "--level-db", "70"]) == 0
        m1, m2 = manifest_of(out1), manifest_of(out2)
        assert m1["outputs"]["heterodyne"]["sha256"] == \
            m2["outputs"]["heterodyne"]["sha256"]
        assert m1["config_digest"] == m2["config_digest"]
        assert out1.read_bytes() == out2.read_bytes()

    # a negative seed used to end in numpy's ValueError traceback; a level
    # of nan or inf in non-finite samples, and -inf in a voiceless record
    @pytest.mark.parametrize("flag,message", [
        ("--seed=-1", "--seed must be >= 0, got -1"),
        ("--level-db=nan", "--level-db must be finite, got nan"),
        ("--level-db=inf", "--level-db must be finite, got inf"),
        ("--level-db=-inf", "--level-db must be finite, got -inf"),
    ], ids=["seed-negative", "level-nan", "level-inf", "level-minus-inf"])
    def test_bad_flag_exits_2_writing_nothing(self, tmp_path, chirp_wav, capsys, monkeypatch,
                                              flag, message):
        inputs = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr(cli, "read_wav", None)  # rejected before anything is read
        assert main(["simulate", "--audio", str(chirp_wav), "--out", str(tmp_path / "het.wav"),
                     flag]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_flatten_below_reaches_synthesis(self, tmp_path, chirp_wav):
        outs = []
        for hz in (10, 1000):
            conf = tmp_path / f"flat{hz}.yaml"
            conf.write_text(f"noise:\n  flatten_below_hz: {hz}\n")
            out = tmp_path / f"het{hz}.wav"
            assert main(["simulate", "--config", str(conf), "--audio", str(chirp_wav),
                         "--out", str(out), "--seed", "3"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_nyquist_config_exits_4_naming_keys(self, tmp_path, chirp_wav, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("interferometer:\n  intermediate_frequency_hz: 250000.0\n")
        rc = main(["simulate", "--config", str(bad), "--audio", str(chirp_wav),
                   "--out", str(tmp_path / "het.wav")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "intermediate_frequency" in err and "sample_rate" in err

    def test_missing_audio_exits_3(self, tmp_path):
        rc = main(["simulate", "--audio", str(tmp_path / "nope.wav"),
                   "--out", str(tmp_path / "het.wav")])
        assert rc == 3

    def test_level_of_a_silent_input_exits_2_writing_nothing(self, tmp_path, capsys):
        src = tmp_path / "silent.wav"
        wavfile.write(src, FS, np.zeros(4000, dtype=np.float32))
        assert main(["simulate", "--audio", str(src), "--out", str(tmp_path / "het.wav"),
                     "--level-db", "70"]) == 2
        assert "cannot scale a silent input to a sound level" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["silent.wav"]

    # an empty input with a level ended in numpy's zero-size traceback, a
    # 1-sample one without noise in a record that read_trace rejects, and a
    # level past the float range in "non-finite values" after a RuntimeWarning,
    # and one below it in a voiceless record
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,flags,message", [
        (0, ["--level-db", "70"], "needs at least 2 samples at 400000.0 S/s, got 0"),
        (1, [], "needs at least 2 samples at 400000.0 S/s, got 1"),
        (4000, ["--level-db=1e308"], "--level-db 1e+308 scales"),
        (4000, ["--level-db=-1e308"], "--level-db -1e+308 scales"),
    ], ids=["empty", "one-sample", "level-past-float-range", "level-below-float-range"])
    def test_bad_input_exits_2_writing_nothing(self, tmp_path, capsys, n, flags, message):
        src = tmp_path / "in.wav"
        wavfile.write(src, FS, np.full(n, 0.5, dtype=np.float32))
        assert main(["simulate", "--config", str(quiet_config(tmp_path)), "--audio", str(src),
                     "--out", str(tmp_path / "het.wav"), *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and str(src) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "quiet.yaml"]

    def test_unknown_config_key_exits_2(self, tmp_path, chirp_wav):
        bad = tmp_path / "bad.yaml"
        bad.write_text("interferometer:\n  sample_rate: 400000.0\n")
        rc = main(["simulate", "--config", str(bad), "--audio", str(chirp_wav),
                   "--out", str(tmp_path / "het.wav")])
        assert rc == 2

    def test_removed_aom_shift_key_exits_2(self, tmp_path, chirp_wav, capsys):
        bad = tmp_path / "aom.yaml"
        bad.write_text("interferometer:\n  aom_shift_hz: 80.0e+6\n")
        rc = main(["simulate", "--config", str(bad), "--audio", str(chirp_wav),
                   "--out", str(tmp_path / "het.wav")])
        assert rc == 2
        assert "unknown config key: interferometer.aom_shift_hz" in capsys.readouterr().err

    def test_rate_needing_a_large_denominator_exits_2(self, tmp_path, capsys):
        # 400000 / 10573 has denominator 10573 (= 97 x 109) in lowest terms
        src = tmp_path / "odd.wav"
        wavfile.write(src, 10573, np.zeros(1000, dtype=np.float32))
        out = tmp_path / "het.wav"
        rc = main(["simulate", "--audio", str(src), "--out", str(out)])
        assert rc == 2
        assert "10573" in capsys.readouterr().err
        assert not out.exists()

    # 400 kS/s / 3, which the resampler reaches from the 400 kS/s input; a
    # WAV header would round it to 133 333 Hz
    @pytest.mark.parametrize("out,code", [("het.wav", 2), ("het.csv", 0)])
    def test_non_integer_rate_needs_a_csv_output(self, tmp_path, chirp_wav, capsys, out,
                                                 code, monkeypatch):
        conf = tmp_path / "third.yaml"
        conf.write_text("interferometer:\n  sample_rate_hz: 133333.33333333334\n")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        if code:
            monkeypatch.setattr(cli, "read_wav", None)  # nothing is read or computed
        rc = main(["simulate", "--config", str(conf), "--audio", str(chirp_wav),
                   "--out", str(tmp_path / out)])
        assert rc == code
        if code:
            assert (f"interferometer.sample_rate_hz (for {tmp_path / out}) 133333.33333333334 "
                    "is not an integer") in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        else:
            assert read_trace(tmp_path / out).sample_rate == 400e3 / 3


#: a WAV rate `simulate` keeps, one it raises 50-fold and one it quarters
SIMULATE_INPUT_RATES = (FS, 8000, 4 * FS)


@settings(max_examples=60)
@example(level=70.0, n=0, rate=FS, noise=True, ext="wav")
@example(level=None, n=1, rate=FS, noise=False, ext="csv")
@example(level=1e308, n=400, rate=FS, noise=True, ext="wav")
@given(level=st.one_of(st.none(), st.sampled_from([-1e308, 0.0, 70.0, 1e308]),
                       st.floats(-1e308, 1e308)),
       n=st.one_of(st.integers(0, 4), st.just(400)),
       rate=st.sampled_from(SIMULATE_INPUT_RATES), noise=st.booleans(),
       ext=st.sampled_from(["wav", "csv"]))
def test_simulate_writes_a_record_or_nothing(level, n, rate, noise, ext):
    """The error contract of `simulate` over `--level-db` and the input's
    length and rate: exit 0 with a record that `read_trace` reads back (at
    least 2 finite samples), its sidecar and its manifest, or exit 2-5 with
    none of them."""
    with tempfile.TemporaryDirectory() as work:
        audio = os.path.join(work, "in.wav")
        samples = np.random.default_rng(n).standard_normal(n).astype(np.float32)
        wavfile.write(audio, rate, samples)
        config = os.path.join(work, "cfg.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"noise:\n  enabled: {str(noise).lower()}\n")
        out = os.path.join(work, "out", f"het.{ext}")
        os.mkdir(os.path.dirname(out))
        argv = ["simulate", "--config", config, "--audio", audio, "--out", out]
        code = main(argv + ([] if level is None else [f"--level-db={level!r}"]))
        written = sorted(os.listdir(os.path.dirname(out)))
        if code != 0:
            assert code in (2, 3, 4, 5)
            assert written == []
            return
        assert written == sorted(os.path.basename(out) + tail
                                 for tail in ("", ".manifest.json", ".meta.json"))
        assert read_trace(out).n_samples >= 2


class TestDemod:
    def run_sim(self, tmp_path, chirp_wav):
        het = tmp_path / "het.wav"
        assert main(["simulate", "--config", str(quiet_config(tmp_path)),
                     "--audio", str(chirp_wav), "--out", str(het), "--level-db", "70"]) == 0
        return het

    def test_round_trip_correlation(self, tmp_path, chirp_wav):
        het = self.run_sim(tmp_path, chirp_wav)
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(het), "--out", str(rec)]) == 0

        cfg = default_config()
        recovered = read_trace(rec)
        meta = json.loads((tmp_path / "rec.wav.meta.json").read_text())
        offset = int(round(meta["start_time_s"] * 40000.0))
        rate0, src = read_wav(chirp_wav)
        level = spl_to_pressure(70.0, cfg.coupling.spl_reference)
        audio = SampledTrace(rate0, src / np.max(np.abs(src)) * level, AUDIO)
        phase = voice_to_phase(audio, cfg.coupling, cfg.interferometer.sensing_length)
        # the 500 Hz-5 kHz chirp at 40 kS/s: every 10th sample
        expected = highpass(phase, 500.0, 4).samples[::10]
        n = min(recovered.n_samples, expected.size - offset)
        a = recovered.samples[1000:n - 1000]
        b = expected[offset + 1000:offset + n - 1000]
        assert np.corrcoef(a, b)[0, 1] > 0.99

    def test_carrier_only_is_near_silent(self, tmp_path):
        silent_src = tmp_path / "silence.wav"
        wavfile.write(silent_src, FS, np.zeros(FS // 5, dtype=np.float32))
        het = tmp_path / "het.wav"
        assert main(["simulate", "--config", str(quiet_config(tmp_path)),
                     "--audio", str(silent_src), "--out", str(het)]) == 0
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(het), "--out", str(rec)]) == 0
        _, out = read_wav(rec)
        assert np.sqrt(np.mean(out ** 2)) < 1e-4

    def test_no_highpass_flag(self, tmp_path, chirp_wav):
        het = self.run_sim(tmp_path, chirp_wav)
        with_hp = tmp_path / "hp.wav"
        without_hp = tmp_path / "raw.wav"
        assert main(["demod", "--in", str(het), "--out", str(with_hp)]) == 0
        assert main(["demod", "--in", str(het), "--out", str(without_hp),
                     "--no-highpass"]) == 0
        _, a = read_wav(with_hp)
        _, b = read_wav(without_hp)
        assert not np.allclose(a, b)

    def test_phase_csv_export(self, tmp_path, chirp_wav):
        het = self.run_sim(tmp_path, chirp_wav)
        rec = tmp_path / "rec.wav"
        pcsv = tmp_path / "phase.csv"
        assert main(["demod", "--in", str(het), "--out", str(rec),
                     "--phase-csv", str(pcsv)]) == 0
        # the audio-rate phase, as the WAV holds it in float32
        phase, audio = read_trace(pcsv), read_trace(rec)
        assert phase.kind == PHASE
        assert phase.sample_rate == audio.sample_rate == 40000.0
        np.testing.assert_array_equal(phase.samples.astype(np.float32), audio.samples)

    def test_phase_csv_is_not_a_heterodyne_input(self, tmp_path):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        het = self.run_sim(tmp_path, src)
        pcsv = tmp_path / "phase.csv"
        assert main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav"),
                     "--phase-csv", str(pcsv)]) == 0
        assert main(["demod", "--in", str(pcsv),
                     "--out", str(tmp_path / "again.wav")]) == 2

    def fail_if_demodulated(self, monkeypatch):
        import fibertap.cli

        # decimate_to_audio is demod's first DSP step
        def decimate_to_audio(*args, **kwargs):
            raise AssertionError("decimate ran before the rate check")
        monkeypatch.setattr(fibertap.cli, "decimate_to_audio", decimate_to_audio)

    def test_zero_audio_rate_config_exits_2(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = self.run_sim(tmp_path, src)
        conf = tmp_path / "zero.yaml"
        conf.write_text("demod:\n  audio_rate_hz: 0\n")
        self.fail_if_demodulated(monkeypatch)
        rc = main(["demod", "--config", str(conf), "--in", str(het),
                   "--out", str(tmp_path / "rec.wav")])
        assert rc == 2
        assert "rate must be finite and > 0, got 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("config,code,message", [
        # the config layer rejects a NaN before any physics check sees it
        pytest.param("interferometer:\n  intermediate_frequency_hz: .nan\n", 2,
                     "interferometer.intermediate_frequency_hz must be finite", id="nan-beat"),
        pytest.param("demod:\n  audio_rate_hz: 16000\n", 2, "cannot carry the audio band",
                     id="audio-rate-16k"),
        # the FIR stops at the beat, so a beat at the band's top would cut it
        pytest.param("interferometer:\n  intermediate_frequency_hz: 10000\n", 2,
                     "demod.beat_frequency 10000.0 must lie above the audio band",
                     id="beat-at-band-edge"),
        pytest.param("demod:\n  highpass_cutoff_hz: 0\n", 2,
                     "demod.highpass_cutoff must be finite and > 0", id="highpass-cutoff-0"),
        pytest.param("demod:\n  highpass_cutoff_hz: 200000\n", 2,
                     "demod.highpass_cutoff must lie below", id="highpass-cutoff-nyquist"),
        # 1/10 of 400 kS/s misses it by 2.5e-10 relative, far past rounding
        pytest.param("demod:\n  audio_rate_hz: 40000.00001\n", 2,
                     "rate 40000.00001 is not rationally related to 400000.0",
                     id="audio-rate-off-a-reachable-rate"),
    ])
    def test_rejected_before_demodulating_writing_nothing(self, tmp_path, monkeypatch,
                                                          capsys, config, code, message):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = self.run_sim(tmp_path, src)
        conf = tmp_path / "demod.yaml"
        conf.write_text(config)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        self.fail_if_demodulated(monkeypatch)
        rc = main(["demod", "--config", str(conf), "--in", str(het),
                   "--out", str(tmp_path / "rec.csv"),
                   "--phase-csv", str(tmp_path / "p.csv")])
        assert rc == code
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    # 400 kS/s / 3, which resample_ratio accepts: a WAV header would round it
    # to 133 333 Hz, and enhance would read that rate back
    @pytest.mark.parametrize("out,phase_csv,code", [
        ("rec.wav", None, 2), ("rec.csv", "p.wav", 2), ("rec.csv", "p.csv", 0),
    ])
    def test_non_integer_audio_rate_needs_csv_outputs(self, tmp_path, monkeypatch, capsys,
                                                      out, phase_csv, code):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        het = self.run_sim(tmp_path, src)
        conf = tmp_path / "third.yaml"
        conf.write_text("demod:\n  audio_rate_hz: 133333.33333333334\n")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        if code:
            self.fail_if_demodulated(monkeypatch)
        argv = ["demod", "--config", str(conf), "--in", str(het), "--out", str(tmp_path / out)]
        if phase_csv:
            argv += ["--phase-csv", str(tmp_path / phase_csv)]
        assert main(argv) == code
        if code:
            wav = out if out.endswith(".wav") else phase_csv
            assert (f"demod.audio_rate_hz (for {tmp_path / wav}) 133333.33333333334 is not an "
                    "integer, which a WAV header needs") in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        else:
            assert read_trace(tmp_path / out).sample_rate == 400e3 / 3

    # without its rate line and sidecar, a trace CSV's rate comes from its
    # first two times, 1 / 2.5e-06 = 399999.99999999994, which still reaches
    # each audio rate to rounding; the output is labelled the configured
    # rate, so a WAV output takes it as its integer header rate
    @pytest.mark.parametrize("out", ["rec.csv", "rec.wav"])
    @pytest.mark.parametrize("rate", [40000, 32000, 44100])
    def test_headerless_csv_record_demodulates(self, tmp_path, rate, out):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        het = tmp_path / "het.csv"
        assert main(["simulate", "--config", str(quiet_config(tmp_path)),
                     "--audio", str(src), "--out", str(het)]) == 0
        het.write_bytes(het.read_bytes().split(b"\n", 1)[1])
        Path(str(het) + ".meta.json").unlink()
        conf = tmp_path / "rate.yaml"
        conf.write_text(f"demod:\n  audio_rate_hz: {rate}\n")
        rec = tmp_path / out
        assert main(["demod", "--config", str(conf), "--in", str(het), "--out", str(rec)]) == 0
        assert json.loads(Path(str(rec) + ".meta.json").read_text())["sample_rate_hz"] == rate
        assert read_trace(rec).sample_rate == rate

    @pytest.mark.parametrize("rate,up,down", [(44100, 441, 4000), (22050, 441, 8000)])
    def test_cd_audio_rates_accepted(self, tmp_path, rate, up, down):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        het = self.run_sim(tmp_path, src)
        rec, pcsv = tmp_path / "rec.wav", tmp_path / "phase.csv"
        conf = tmp_path / "rate.yaml"
        conf.write_text(f"demod:\n  audio_rate_hz: {rate}\n")
        assert main(["demod", "--config", str(conf), "--in", str(het), "--out", str(rec),
                     "--phase-csv", str(pcsv)]) == 0
        n = read_trace(het).n_samples
        audio = read_trace(rec)
        guard = edge_guard(load_config(conf).demod, FS, default_config().band, n,
                           highpass=True)
        assert audio.sample_rate == read_trace(pcsv).sample_rate == rate
        assert audio.n_samples == -(-n * up // down) - 2 * guard

    def test_non_numeric_csv_value_exits_3_naming_file(self, tmp_path, capsys):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = tmp_path / "het.csv"
        assert main(["simulate", "--config", str(quiet_config(tmp_path)),
                     "--audio", str(src), "--out", str(het)]) == 0
        lines = het.read_bytes().split(b"\r\n")
        lines[3] = lines[3].split(b",")[0] + b",abc"
        het.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        rc = main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "het.csv" in err and "abc" in err

    def test_unknown_trace_extension_exits_2_writing_nothing(self, tmp_path, capsys):
        (tmp_path / "x.txt").write_text("0.0,1.0\n")
        assert main(["demod", "--in", str(tmp_path / "x.txt"),
                     "--out", str(tmp_path / "rec.wav")]) == 2
        assert "unsupported trace extension '.txt'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    def test_three_column_csv_exits_3_writing_nothing(self, tmp_path, capsys):
        (tmp_path / "het.csv").write_text("0.0,1.0,2.0\n0.0000025,1.0,2.0\n")
        assert main(["demod", "--in", str(tmp_path / "het.csv"),
                     "--out", str(tmp_path / "rec.wav")]) == 3
        assert "het.csv: expected 'time,value' rows" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["het.csv"]

    def test_long_record_does_not_warn(self, tmp_path, chirp_wav, capsys):
        het = self.run_sim(tmp_path, chirp_wav)
        capsys.readouterr()
        assert main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav")]) == 0
        assert capsys.readouterr().err == ""

    def short_het(self, tmp_path, n):
        src = tmp_path / "short.wav"
        wavfile.write(src, FS, np.sin(2 * np.pi * 1000 * np.arange(n) / FS).astype(np.float32))
        return self.run_sim(tmp_path, src)

    # 1110 samples: 3 x the 37-sample guard at 40 kHz (369 taps on the 10:1 grid)
    @pytest.mark.parametrize("flags", [[], ["--no-highpass"]])
    def test_record_of_three_guards_exits_2(self, tmp_path, monkeypatch, capsys, flags):
        het = self.short_het(tmp_path, 1110)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        self.fail_if_demodulated(monkeypatch)
        capsys.readouterr()
        rc = main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav"),
                   "--phase-csv", str(tmp_path / "p.csv")] + flags)
        assert rc == 2
        assert ("trims a 37-sample edge guard from each end of the audio record and needs "
                "one of more than 111 samples; this record gives 111") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    # without the high-pass, its length rule (which an order-24 filter fails
    # on the 38 samples left of 1111) does not apply
    @pytest.mark.parametrize("order,flags", [
        (4, []), (1, []), (4, ["--no-highpass"]), (24, ["--no-highpass"]),
    ])
    def test_record_of_three_guards_and_one_demodulates(self, tmp_path, order, flags):
        het = self.short_het(tmp_path, 1111)
        conf = tmp_path / "order.yaml"
        conf.write_text(f"demod:\n  filter_order: {order}\n")
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--config", str(conf), "--in", str(het),
                     "--out", str(rec)] + flags) == 0
        assert read_trace(rec).n_samples == 38
        meta = json.loads((tmp_path / "rec.wav.meta.json").read_text())
        assert meta["start_time_s"] == 37 / 40000

    # the 37-sample guard leaves ceil(n / 10) - 74 audio samples, and the
    # high-pass pads 3 x (order + 1) at each edge and needs more
    @pytest.mark.parametrize("order,n", [(24, 1480), (24, 1481), (24, 1490), (12, 1130)])
    def test_record_too_short_for_the_highpass_exits_2(self, tmp_path, monkeypatch,
                                                        capsys, order, n):
        het = self.short_het(tmp_path, n)
        conf = tmp_path / "order.yaml"
        conf.write_text(f"demod:\n  filter_order: {order}\n")
        inputs = sorted(p.name for p in tmp_path.iterdir())
        self.fail_if_demodulated(monkeypatch)
        capsys.readouterr()
        rc = main(["demod", "--config", str(conf), "--in", str(het),
                   "--out", str(tmp_path / "rec.wav"), "--phase-csv", str(tmp_path / "p.csv")])
        assert rc == 2
        need = 3 * (order + 1) + 1
        assert (f"order-{order} high-pass needs a phase record of at least {need} samples; "
                f"this record gives it {-(-n // 10) - 74}") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_phase_past_the_unwrap_margin_exits_4_writing_nothing(self, tmp_path, capsys):
        # a record whose beat is 12 kHz above the configured one: its baseband
        # turns by 2 pi 12/40 = 1.88 rad per audio sample, past the pi/2 margin
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        conf = tmp_path / "beat37k.yaml"
        conf.write_text("noise:\n  enabled: false\n"
                        "interferometer:\n  intermediate_frequency_hz: 37000\n")
        het = tmp_path / "het.wav"
        assert main(["simulate", "--config", str(conf), "--audio", str(src),
                     "--out", str(het)]) == 0
        inputs = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        rc = main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav"),
                   "--phase-csv", str(tmp_path / "p.csv")])
        assert rc == 4
        assert "past the unwrap margin of pi/2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_file_pipeline_matches_in_process(self, tmp_path, chirp_wav):
        from fibertap import iq_demodulate, synthesize_heterodyne, unwrap_phase
        het_file = self.run_sim(tmp_path, chirp_wav)
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(het_file), "--out", str(rec)]) == 0
        via_files = read_trace(rec)

        cfg = default_config()
        rate0, src = read_wav(chirp_wav)
        level = spl_to_pressure(70.0, cfg.coupling.spl_reference)
        audio = SampledTrace(rate0, src / np.max(np.abs(src)) * level, AUDIO)
        phase = voice_to_phase(audio, cfg.coupling, cfg.interferometer.sensing_length)
        het = synthesize_heterodyne(cfg.interferometer, voice_phase=phase)
        dm = cfg.demod
        guard = edge_guard(dm, het.sample_rate, cfg.band, het.n_samples, highpass=True)
        baseband = iq_demodulate(decimate_to_audio(het, dm, cfg.band), dm)
        phase = unwrap_phase(baseband.with_samples(baseband.samples[guard:-guard]))
        rec2 = highpass(phase, dm.highpass_cutoff, dm.filter_order)
        # equality up to float32 storage of the heterodyne trace and output
        scale = np.max(np.abs(rec2.samples))
        np.testing.assert_allclose(via_files.samples, rec2.samples,
                                   atol=2e-5 * scale)


class TestConfigCheckedOnLoad:
    """A config that contradicts itself fails every command before any work:
    with real inputs missing, a command that got past `load_config` would
    exit 3 or write a table."""

    COMMANDS = {
        "simulate": ["simulate", "--audio", "missing.wav", "--out", "out.wav"],
        "demod": ["demod", "--in", "missing.wav", "--out", "out.wav"],
        "enhance": ["enhance", "--in", "missing.wav", "--out", "out.wav"],
        "budget": ["budget", "--sweep", "length", "--out", "out.csv"],
        "sensitivity": ["sensitivity", "--out", "out.csv"],
        "print-config": ["print-config", "--out", "out.yaml"],
    }

    # two keys that are gone, and so unknown; two detection thresholds that
    # budget turned into -inf and nan limits; four settings the tap rejects;
    # and files that do not fit the packaged tree's shape or types (a null
    # variants list once read as an empty one, and sensitivity exited 0)
    @pytest.mark.parametrize("text,key", [
        ("demod:\n  lowpass_cutoff_hz: 30000.0\n", "demod.lowpass_cutoff"),
        ("laser:\n  linewidth_hz: 200\n", "laser.linewidth_hz"),
        ("noise:\n  snr_threshold: 0\n", "noise.snr_threshold must be > 0, got 0.0"),
        ("noise:\n  snr_threshold: -1\n", "noise.snr_threshold must be > 0, got -1.0"),
        ("band:\n  f_low_hz: 200.0\n  f_high_hz: 100.0\n",
         "band requires 0 < f_low < f_high, got [200.0, 100.0]"),
        ("coupling:\n  sensitivity_rad_per_pa_m: 0.0\n",
         "coupling.sensitivity must be > 0, got 0.0"),
        ("interferometer:\n  sample_rate_hz: 0.0\n",
         "interferometer.sample_rate must be > 0, got 0.0"),
        ("interferometer:\n  sensing_length_m: -1.0\n",
         "interferometer.sensing_length must be > 0, got -1.0"),
        ("- laser\n", "config section <root> must be a mapping"),
        ("band:\n  f_low_hz: null\n", "config key band.f_low_hz must be a number, got null"),
        ("noise:\n  enabled: 1\n", "config key noise.enabled must be a boolean, got 1"),
        ("scenarios:\n  variants:\n    - sensing_length_m: 1.0\n"
         "      bulk_modulus_scale: 1.0\n      reflection_amplitude: 0.2\n",
         "missing config key: scenarios.variants[0].label"),
        ("scenarios:\n  variants: null\n",
         "config key scenarios.variants must be a list, got null"),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2_naming_the_key(self, tmp_path, monkeypatch, capsys, command, text, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text(text)
        assert main(self.COMMANDS[command] + ["--config", "bad.yaml"]) == 2
        assert key in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.yaml"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--audio", "a.wav", "--out", "het.wav", "--no-noise"],
    ["demod", "--in", "het.wav", "--out", "rec.wav", "--beat-frequency=25000"],
    ["demod", "--in", "het.wav", "--out", "rec.wav", "--highpass-cutoff=300"],
    ["demod", "--in", "het.wav", "--out", "rec.wav", "--audio-rate=40000"],
], ids=lambda argv: argv[-1].split("=")[0])
def test_flag_that_shadowed_a_config_key_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    """README's fenced ``lang`` blocks as (``## `` section, lines) pairs."""
    blocks, section, fence = [], None, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = None if fence is not None else line[3:]
            if fence == lang:
                blocks.append((section, []))
        elif fence == lang:
            blocks[-1][1].append(line)
        elif fence is None and line.startswith("## "):
            section = line[3:]
    return blocks


def test_readme_command_lines_parse():
    """Every `fibertap ...` line in README's ``sh`` blocks parses, so a flag
    removed from the parser cannot stay in the docs."""
    lines = [line for _, block in readme_blocks("sh") for line in block
             if line.startswith("fibertap ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_library_example_runs():
    """README's "Library" block runs as written, so a parameter removed from
    the API cannot stay in the example."""
    (code,) = [block for section, block in readme_blocks("python") if section == "Library"]
    namespace = {}
    exec("\n".join(code), namespace)
    audio, enhanced = namespace["audio"], namespace["enhanced"]
    assert enhanced.sample_rate == audio.sample_rate == 40e3
    assert enhanced.n_samples == audio.n_samples


def schema_keys(tree):
    """Every key of a config section, nested ones and a list item's included."""
    for key, value in tree.items():
        yield key
        value = value[0] if isinstance(value, list) else value
        if isinstance(value, dict):
            yield from schema_keys(value)


def test_readme_names_every_config_key():
    """README's "Configuration" table has one row per section of the packaged
    config, naming each of its keys, so a key cannot be added or removed
    without the docs."""
    text = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text.split("\n## ")[0], re.M))
    tree = default_config().raw
    assert list(rows) == list(tree)
    for section, keys in tree.items():
        for key in schema_keys(keys):
            assert f"`{key}`" in rows[section], (section, key)


@pytest.mark.parametrize("error,code", [
    (errors.FiberTapError, 4), (errors.ConfigurationError, 2), (errors.NyquistError, 4),
    (errors.InputError, 2), (errors.DomainError, 4), (errors.SynthesisError, 4),
    (errors.EstimationError, 5), (errors.FileFormatError, 3), (FileNotFoundError, 3),
])
def test_exit_code_of_each_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")
    monkeypatch.setattr(cli, "cmd_print_config", fail)
    assert main(["print-config"]) == code
    assert capsys.readouterr().err == "error: boom\n"


class TestEnhance:
    def make_bursty(self, tmp_path, fs=16000, with_noise=False):
        n = fs * 2
        t = np.arange(n) / fs
        gate = ((t % 0.5) < 0.2).astype(float)
        clean = (0.3 * np.sin(2 * np.pi * 1500 * t) * gate).astype(np.float32)
        p = tmp_path / "clean.wav"
        wavfile.write(p, fs, clean)
        return p

    def test_clean_input_is_near_identity(self, tmp_path):
        src = self.make_bursty(tmp_path)
        out = tmp_path / "enh.wav"
        rc = main(["enhance", "--in", str(src), "--out", str(out)])
        assert rc == 0
        _, x = read_wav(src)
        _, y = read_wav(out)
        # float32 storage bounds the achievable identity here
        assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-6
        report = json.loads((tmp_path / "enh.wav.report.json").read_text())
        assert report["noise_source"] == "silent-frames"
        assert report["n_silent_frames"] > 0

    def test_no_silent_frames_exits_5(self, tmp_path):
        rng = np.random.default_rng(5)
        noisy = tmp_path / "noisy.wav"
        wavfile.write(noisy, 16000,
                      rng.standard_normal(32000).astype(np.float32))
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text("enhance:\n  silence_threshold_db: 10.0\n")
        rc = main(["enhance", "--config", str(cfgp), "--in", str(noisy),
                   "--out", str(tmp_path / "out.wav")])
        assert rc == 5

    @pytest.mark.parametrize("key,value", [
        ("overlap", 1.0), ("overlap", 1.5), ("overlap", -0.1),
        ("frame_ms", 0), ("frame_ms", -5),
        # a hop of a whole frame would zero every frame's first sample
        ("overlap", 0.0), ("overlap", 0.001),
        # hop 318 of 320: the windows over one sample sum to 1.9e-4
        ("overlap", 0.005),
    ])
    def test_bad_framing_config_exits_2_naming_key(self, tmp_path, capsys, key, value):
        src = self.make_bursty(tmp_path)
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(f"enhance:\n  {key}: {value}\n")
        rc = main(["enhance", "--config", str(cfgp), "--in", str(src),
                   "--out", str(tmp_path / "out.wav")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.wav").exists()

    def test_noise_profile_skips_detection(self, tmp_path):
        rng = np.random.default_rng(6)
        noisy = tmp_path / "noisy.wav"
        wavfile.write(noisy, 16000,
                      rng.standard_normal(32000).astype(np.float32))
        profile = tmp_path / "prof.wav"
        wavfile.write(profile, 16000,
                      rng.standard_normal(16000).astype(np.float32))
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text("enhance:\n  silence_threshold_db: 10.0\n")
        out = tmp_path / "out.wav"
        rc = main(["enhance", "--config", str(cfgp), "--in", str(noisy),
                   "--out", str(out), "--noise-profile", str(profile)])
        assert rc == 0
        report = json.loads((tmp_path / "out.wav.report.json").read_text())
        assert report["noise_source"] == "profile"
        assert report["n_silent_frames"] is None

    def test_wrong_rate_noise_profile_exits_2_writing_nothing(self, tmp_path, capsys):
        src = self.make_bursty(tmp_path)
        profile = tmp_path / "prof.wav"
        wavfile.write(profile, 8000, np.zeros(16000, dtype=np.float32))
        rc = main(["enhance", "--in", str(src), "--out", str(tmp_path / "enh.wav"),
                   "--report", str(tmp_path / "report.json"), "--noise-profile", str(profile)])
        assert rc == 2
        assert "noise profile rate 8000.0 differs from input rate 16000.0" in \
            capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.wav", "prof.wav"]

    @pytest.mark.parametrize("n_profile", [100, 200])
    def test_profile_shorter_than_a_frame_exits_2(self, tmp_path, capsys, n_profile):
        src = self.make_bursty(tmp_path)
        profile = tmp_path / "prof.wav"
        wavfile.write(profile, 16000, np.ones(n_profile, dtype=np.float32))
        rc = main(["enhance", "--in", str(src), "--out", str(tmp_path / "out.wav"),
                   "--noise-profile", str(profile)])
        assert rc == 2
        assert "shorter than one frame" in capsys.readouterr().err

    def test_reference_reporting(self, tmp_path):
        src = self.make_bursty(tmp_path)
        out = tmp_path / "enh.wav"
        rc = main(["enhance", "--in", str(src), "--out", str(out),
                   "--reference", str(src)])
        assert rc == 0
        report = json.loads((tmp_path / "enh.wav.report.json").read_text())
        assert report["segmental_snr_before_db"] is not None
        assert report["gain_db"] is not None

    @pytest.mark.parametrize("rate,n", [(16000, 31999), (8000, 32000)],
                             ids=["length", "rate"])
    def test_mismatched_reference_exits_2_writing_nothing(self, tmp_path, capsys, rate, n):
        src = self.make_bursty(tmp_path)
        ref = tmp_path / "ref.wav"
        wavfile.write(ref, rate, np.zeros(n, dtype=np.float32))
        rc = main(["enhance", "--in", str(src), "--out", str(tmp_path / "enh.wav"),
                   "--report", str(tmp_path / "report.json"), "--reference", str(ref)])
        assert rc == 2
        assert "reference must match the input rate and length" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.wav", "ref.wav"]


class TestBudget:
    def test_length_sweep_monotone_and_anchor(self, tmp_path):
        out = tmp_path / "len.csv"
        rc = main(["budget", "--sweep", "length", "--from", "10", "--to", "10000",
                   "--points", "40", "--out", str(out)])
        assert rc == 0
        rows = read_budget_table(out)
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

        single = tmp_path / "single.csv"
        rc = main(["budget", "--sweep", "length", "--from", "3000", "--to", "3000",
                   "--points", "1", "--out", str(single)])
        assert rc == 0
        assert read_budget_table(single)[0].limit_db == pytest.approx(30.0, abs=0.5)

    def test_mismatch_sweep_slope(self, tmp_path):
        out = tmp_path / "mm.csv"
        rc = main(["budget", "--sweep", "mismatch", "--from", "1", "--to", "10000",
                   "--points", "40", "--out", str(out)])
        assert rc == 0
        rows = read_budget_table(out)
        x = np.log([r.x_value for r in rows])
        y = np.log([r.laser_rms for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "len.json"
        rc = main(["budget", "--sweep", "length", "--from", "100", "--to", "1000",
                   "--points", "3", "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert set(rows[0]) == {"x_value", "thermal_rms", "laser_rms",
                                "total_rms", "limit_db"}

    # sweeps are log-spaced, so both bounds must be > 0 at any point count;
    # one point takes --from alone
    @pytest.mark.parametrize("flags,message", [
        (["--from", "0"], "must be > 0, got 0.0 and 10000.0"),
        (["--from", "0", "--points", "1"], "must be > 0, got 0.0 and 10000.0"),
        (["--from", "0", "--to", "0", "--points", "1"], "must be > 0, got 0.0 and 0.0"),
        (["--to", "0"], "must be > 0, got 10.0 and 0.0"),
        (["--from", "-5", "--points", "2"], "must be > 0, got -5.0 and 10000.0"),
        (["--points", "0"], "--points must be at least 1, got 0"),
        (["--points", "-3"], "--points must be at least 1, got -3"),
        (["--from", "nan"], "must be finite, got nan and 10000.0"),
        (["--to", "inf"], "must be finite, got 10.0 and inf"),
        (["--to", "inf", "--points", "1"], "must be finite, got 10.0 and inf"),
    ], ids=["from-0", "one-point-from-0", "one-point-both-0", "to-0", "from-negative",
            "points-0", "points-negative", "from-nan", "to-inf", "one-point-to-inf"])
    def test_bad_sweep_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "len.csv"
        assert main(["budget", "--sweep", "length", "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


    def test_length_below_the_sensing_fiber_rejected(self, tmp_path, capsys):
        # the default tap's sensing fiber is 3 m, so no detecting arm is shorter
        out = tmp_path / "len.csv"
        assert main(["budget", "--sweep", "length", "--from", "1", "--to", "3000",
                     "--out", str(out)]) == 2
        assert "interferometer.sensing_length" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(["budget", "--sweep", "length", "--from", "3", "--to", "3000",
                     "--points", "31", "--out", str(out)]) == 0
        assert read_budget_table(out)[0].x_value == 3.0

    def test_zero_sensing_fiber_exits_2_writing_nothing(self, tmp_path, monkeypatch, capsys):
        # the tap rejects it on load: simulate once wrote a record that held
        # no voice, and budget named its first sweep point, not the key
        monkeypatch.chdir(tmp_path)
        write_chirp(tmp_path / "voice.wav")
        (tmp_path / "cfg.yaml").write_text("interferometer:\n  sensing_length_m: 0.0\n")
        for argv in (["budget", "--sweep", "length", "--out", "len.csv"],
                     ["simulate", "--audio", "voice.wav", "--out", "het.wav",
                      "--level-db", "70"]):
            assert main(argv + ["--config", "cfg.yaml"]) == 2
            assert "interferometer.sensing_length must be > 0, got 0.0" \
                in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "voice.wav"]

    # a length whose balanced reference 2L overflows to inf (once a
    # ValueError traceback from the nan mismatch inf - inf), a mismatch
    # whose laser variance overflows (once a row of inf), one whose tau0 ** 2
    # does (once an OverflowError traceback) and one whose tau0 ** 2
    # underflows to 0 (once a limit of -inf dB)
    @pytest.mark.parametrize("flags,code,message", [
        (["--sweep", "length", "--from", "1e308"], 2,
         "length 1e+308: interferometer.reference_length must be finite and >= 0, got inf"),
        (["--sweep", "mismatch", "--from", "1e160", "--to", "1e160"], 4,
         "mismatch 1e+160: the laser phase variance at tau0 = 4.896720917508872e+151 s "
         "is inf rad^2"),
        (["--sweep", "mismatch", "--from", "1e308", "--to", "1e308"], 4,
         "mismatch 1e+308: the laser phase variance at tau0 = 4.896720917508872e+299 s "
         "is inf rad^2"),
        (["--sweep", "mismatch", "--from", "1e-200"], 4,
         "mismatch 1e-200: the laser phase variance at tau0 = 4.896720917508872e-209 s "
         "is 0.0 rad^2"),
    ], ids=["length-1e308", "mismatch-1e160", "mismatch-1e308", "mismatch-1e-200"])
    def test_budget_past_the_float_range_writes_nothing(self, tmp_path, capsys, flags,
                                                        code, message):
        out = tmp_path / "table.csv"
        assert main(["budget", *flags, "--points", "1", "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # config leaves that once wrote a limit of inf (printing numpy's overflow
    # warning) and of -inf (-Infinity in a JSON table), exiting 0; a
    # RuntimeWarning fails the test
    @pytest.mark.parametrize("config,flags,message", [
        ("noise:\n  snr_threshold: 1.0e+308\n", ["--sweep", "length"],
         "length 10.0: the detection limit of 1e+308 x "),
        ("laser:\n  white_freq_psd: 0.0\n  flicker_coeff: 0.0\n",
         ["--sweep", "mismatch", "--format", "json"],
         "mismatch 10.0: the detection limit of 1.0 x 0.0 rad RMS noise is -inf dB SPL"),
    ], ids=["snr-threshold-1e308", "noiseless-laser"])
    def test_non_finite_limit_exits_4_writing_nothing(self, tmp_path, capsys, config,
                                                      flags, message):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(config)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["budget", *flags, "--config", str(cfgp),
                     "--out", str(out / "table")]) == 4
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not list(out.iterdir())

    @settings(max_examples=150)
    @given(sweep=st.sampled_from(["length", "mismatch"]),
           start=st.one_of(st.floats(), st.floats(1e-320, 1e308)),
           stop=st.one_of(st.floats(), st.floats(1e-320, 1e308)),
           points=st.integers(-1, 50), fmt=st.sampled_from(["csv", "json"]),
           thermal=st.booleans())
    def test_any_sweep_writes_finite_rows_or_nothing(self, sweep, start, stop, points,
                                                     fmt, thermal):
        with tempfile.TemporaryDirectory() as work:
            out = os.path.join(work, f"table.{fmt}")
            argv = ["budget", "--sweep", sweep, f"--from={start!r}", f"--to={stop!r}",
                    f"--points={points}", "--format", fmt, "--out", out]
            code = main(argv + ["--include-thermal"] * thermal)
            if code != 0:
                assert code in (2, 3, 4, 5)
                assert os.listdir(work) == []
                return
            if fmt == "csv":
                rows = [list(vars(row).values()) for row in read_budget_table(out)]
            else:
                with open(out) as fh:
                    rows = [list(row.values()) for row in json.load(fh)]
        assert len(rows) == points
        assert np.all(np.isfinite(rows)), rows


def strict_json(path):
    """A JSON file parsed as standard JSON: NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def table_leaf(*marks, low=0.0, high=1e308):
    """A config number feeding the tables: one of `marks` (the extremes
    and the packaged value), or any float in [low, high]."""
    return st.one_of(st.sampled_from(marks), st.floats(low, high, allow_subnormal=False))


#: every command that writes a table, with small sweeps
TABLE_COMMANDS = (
    ["budget", "--sweep", "length", "--points", "3", "--out", "length.csv"],
    ["budget", "--sweep", "mismatch", "--points", "3", "--format", "json",
     "--out", "mismatch.json"],
    ["budget", "--sweep", "mismatch", "--points", "3", "--include-thermal",
     "--out", "mismatch.csv"],
    ["sensitivity", "--out", "mitigations.csv"],
)


@settings(max_examples=40)
@given(snr=table_leaf(1e-300, 1.0, 1e300, 1e308, low=1e-300),
       laser=st.one_of(st.just((0.0, 0.0)), st.tuples(
           *[table_leaf(0.0, 1e-300, 1e300, value, high=1e300)
             for value in (1256.6370614359173, 5680294.361677727)])),
       length=table_leaf(0.0, 1e-300, 1.0, 1e300),
       scale=table_leaf(1.0, 10.0, 1e300, low=1.0),
       reflection=table_leaf(0.0, 1e-300, 0.0025, 1.0, high=1.0),
       level=table_leaf(-1e308, 70.0, 1e308, low=-1e308))
def test_tables_write_finite_values_or_nothing(snr, laser, length, scale, reflection,
                                               level):
    """The error contract of `budget` and `sensitivity` over the config
    leaves that feed them: exit 0 with finite CSV values and standard JSON
    files, or exit 2-5 with no table, summary or manifest."""
    tree = {"noise": {"snr_threshold": snr},
            "laser": dict(zip(("white_freq_psd", "flicker_coeff"), laser)),
            "scenarios": {"test_level_db": level,
                          "variants": [{"label": "v", "sensing_length_m": length,
                                        "bulk_modulus_scale": scale,
                                        "reflection_amplitude": reflection}]}}
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "cfg.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(tree, fh)
        outdir = os.path.join(work, "out")
        for argv in TABLE_COMMANDS:
            os.mkdir(outdir)
            out = os.path.join(outdir, argv[-1])
            code = main([*argv[:-1], out, "--config", config])
            written = sorted(os.listdir(outdir))
            if code != 0:
                assert code in (2, 3, 4, 5), argv
                assert written == [], argv
            for name in written:
                path = os.path.join(outdir, name)
                if name.endswith(".json"):
                    strict_json(path)
                else:
                    with open(path, newline="", encoding="utf-8") as fh:
                        header, *rows = csv.reader(fh)
                    values = [float(v) for row in rows for v in row[header[0] == "label":]]
                    assert rows and np.all(np.isfinite(values)), (argv, rows)
            shutil.rmtree(outdir)


class TestSensitivityCmd:
    def test_default_scenarios_table(self, tmp_path):
        out = tmp_path / "mit.csv"
        rc = main(["sensitivity", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + baseline + 3 variants
        short = [ln for ln in lines if ln.startswith("short-1m")][0]
        delta = float(short.split(",")[5])
        assert delta == pytest.approx(-9.54, abs=0.01)
        summary = json.loads((tmp_path / "mit.csv.summary.json").read_text())
        assert summary["baseline"] == "pc-3m"

    def test_baseline_only(self, tmp_path):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(
            "scenarios:\n"
            "  test_level_db: 70.0\n"
            "  baseline:\n"
            "    label: only\n"
            "    sensing_length_m: 3.0\n"
            "    bulk_modulus_scale: 1.0\n"
            "    reflection_amplitude: 0.2\n"
            "  variants: []\n")
        out = tmp_path / "mit.csv"
        rc = main(["sensitivity", "--config", str(cfgp), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[5]) == 0.0

    def test_partial_scenarios_keep_the_default_rows(self, tmp_path):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text("scenarios:\n  test_level_db: 60.0\n")
        out60, out70 = tmp_path / "mit60.csv", tmp_path / "mit70.csv"
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out60)]) == 0
        assert main(["sensitivity", "--out", str(out70)]) == 0
        rows60 = [ln.split(",") for ln in out60.read_text().splitlines()]
        rows70 = [ln.split(",") for ln in out70.read_text().splitlines()]
        assert [r[0] for r in rows60] == [r[0] for r in rows70]
        assert len(rows60) == 5
        for r60, r70 in zip(rows60[1:], rows70[1:]):
            # the voice phase falls 10 dB with the level; the deltas stay
            assert float(r60[4]) == pytest.approx(float(r70[4]) / 10 ** 0.5, rel=1e-12)
            assert float(r60[5]) == pytest.approx(float(r70[5]), abs=1e-12)
            assert r60[6] == r70[6]
        summary = json.loads((tmp_path / "mit60.csv.summary.json").read_text())
        assert summary["test_level_db"] == 60.0 and summary["baseline"] == "pc-3m"

    def test_unknown_scenarios_key_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text("scenarios:\n  test_level: 60.0\n")
        out = tmp_path / "mit.csv"
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out)]) == 2
        assert "unknown config key: scenarios.test_level" in capsys.readouterr().err
        assert not list(tmp_path.glob("mit.csv*"))

    # the level's pressure, 10^(level/20), overflows at +1e308 dB and
    # underflows to 0 at -1e308 dB, so no row has a finite delta
    @pytest.mark.parametrize("level,message", [
        (1e308, "scenario 'pc-3m' at 1e+308 dB SPL: voice phase inf rad, nan dB "
                "from the baseline's inf rad, outside the float range"),
        (-1e308, "scenario 'pc-3m' at -1e+308 dB SPL: voice phase 0.0 rad, nan dB "
                 "from the baseline's 0.0 rad, outside the float range"),
    ])
    def test_test_level_past_the_float_range_exits_4(self, tmp_path, capsys, level,
                                                     message):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(yaml.safe_dump({"scenarios": {"test_level_db": level}}))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out / "mit.csv")]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(out.iterdir())

    # each once wrote -inf to the CSV and -Infinity to the summary, exit 0
    @pytest.mark.parametrize("field,message", [
        ("sensing_length_m", "scenario 'short-1m': sensing_length must be > 0, got 0.0"),
        ("reflection_amplitude", "scenario 'short-1m': reflection_amplitude must be in (0, 1]"),
    ])
    def test_zero_scenario_field_exits_2(self, tmp_path, capsys, field, message):
        tree = default_config().raw["scenarios"]
        tree["variants"][0][field] = 0.0
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(yaml.safe_dump({"scenarios": tree}))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out / "mit.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(
            "scenarios:\n"
            "  test_level_db: 70.0\n"
            "  baseline:\n"
            "    label: base\n"
            "    sensing_length_m: 3.0\n"
            "    bulk_modulus_scale: 1.0\n"
            "    reflection_amplitude: 0.2\n"
            "  variants:\n"
            "    - label: broken\n"
            "      sensing_length_m: 1.0\n"
            "      bulk_modulus_scale: 1.0\n"
            "      reflector: 0.2\n")
        rc = main(["sensitivity", "--config", str(cfgp),
                   "--out", str(tmp_path / "mit.csv")])
        assert rc == 2
        assert "reflector" in capsys.readouterr().err

    # the baseline row reads only scenarios.baseline, so a tap that differs
    # from it once left the table byte-identical to the default's, exit 0
    @pytest.mark.parametrize("key,value", [
        ("sensing_length_m", 1.0), ("reflection_amplitude", 0.05)])
    def test_baseline_contradicting_the_tap_exits_2(self, tmp_path, capsys, key, value):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(f"interferometer:\n  {key}: {value}\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out / "mit.csv")]) == 2
        err = capsys.readouterr().err
        assert f"scenarios.baseline.{key}" in err and f"interferometer.{key}" in err
        assert not list(out.iterdir())
        # other commands take the tap as it is
        assert main(["budget", "--sweep", "length", "--points", "3", "--config", str(cfgp),
                     "--out", str(out / "len.csv")]) == 0
        # and a baseline that restates the tap passes
        cfgp.write_text(f"interferometer:\n  {key}: {value}\n"
                        f"scenarios:\n  baseline:\n    {key}: {value}\n")
        assert main(["sensitivity", "--config", str(cfgp), "--out", str(out / "mit.csv")]) == 0


class TestPrintConfig:
    def test_round_trip_digest(self, tmp_path):
        out = tmp_path / "resolved.yaml"
        assert main(["print-config", "--out", str(out)]) == 0
        from fibertap import load_config
        assert load_config(out).digest() == default_config().digest()

    def test_without_out_writes_the_defaults_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["print-config"]) == 0
        assert capsys.readouterr().out == dump_config(default_config())
        assert not list(tmp_path.iterdir())

    def test_numbers_are_shown_resolved(self, tmp_path, capsys):
        # an integer where the default is a float is that float, digest included
        config = tmp_path / "cfg.yaml"
        config.write_text("demod:\n  audio_rate_hz: 40000\n")
        assert main(["print-config", "--config", str(config)]) == 0
        assert "  audio_rate_hz: 40000.0\n" in capsys.readouterr().out
        assert load_config(config).digest() == default_config().digest()
