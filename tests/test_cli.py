import json

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import chirp

from fibertap import (
    AUDIO,
    PHASE,
    SampledTrace,
    cli,
    decimate_to_audio,
    default_config,
    errors,
    highpass,
    spl_to_pressure,
    voice_to_phase,
)
from fibertap.cli import main
from fibertap.fileio import read_budget_csv, read_trace, read_wav

FS = 400000


def write_chirp(path, duration=0.5, f0=500.0, f1=5000.0):
    t = np.arange(int(FS * duration)) / FS
    wavfile.write(path, FS, chirp(t, f0, duration, f1).astype(np.float32))


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
        assert m["seed"] == 3
        assert m["config_digest"]

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


class TestDemod:
    def run_sim(self, tmp_path, chirp_wav, **flags):
        het = tmp_path / "het.wav"
        args = ["simulate", "--audio", str(chirp_wav), "--out", str(het),
                "--level-db", "70", "--no-noise"]
        assert main(args) == 0
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
        level = spl_to_pressure(70.0)
        audio = SampledTrace(rate0, src / np.max(np.abs(src)) * level, AUDIO)
        phase = voice_to_phase(audio, cfg.coupling, cfg.interferometer.sensing_length)
        expected = decimate_to_audio(highpass(phase, 500.0, 4), 40000.0, cfg.band)
        n = min(recovered.n_samples, expected.n_samples - offset)
        a = recovered.samples[1000:n - 1000]
        b = expected.samples[offset + 1000:offset + n - 1000]
        assert np.corrcoef(a, b)[0, 1] > 0.99

    def test_carrier_only_is_near_silent(self, tmp_path):
        silent_src = tmp_path / "silence.wav"
        wavfile.write(silent_src, FS, np.zeros(FS // 5, dtype=np.float32))
        het = tmp_path / "het.wav"
        assert main(["simulate", "--audio", str(silent_src), "--out", str(het),
                     "--no-noise"]) == 0
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
        phase = read_trace(pcsv)
        assert phase.kind == PHASE
        assert phase.sample_rate == FS

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

        def iq_demodulate(*args, **kwargs):
            raise AssertionError("iq-demodulate ran before the rate check")
        monkeypatch.setattr(fibertap.cli, "iq_demodulate", iq_demodulate)

    def test_zero_audio_rate_flag_exits_2(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = self.run_sim(tmp_path, src)
        self.fail_if_demodulated(monkeypatch)
        rc = main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav"),
                   "--audio-rate", "0"])
        assert rc == 2
        assert "rate must be finite and > 0, got 0.0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("config,flags,message", [
        ("", ["--beat-frequency", "nan"], "demod.beat_frequency must be finite"),
        ("", ["--audio-rate", "16000"], "cannot carry the audio band"),
        # the flag's beat would clear the cutoff, but the config must hold alone
        ("demod:\n  lowpass_cutoff_hz: 30000.0\n", ["--beat-frequency", "80000"],
         "demod.lowpass_cutoff"),
        ("", ["--highpass-cutoff", "0"], "demod.highpass_cutoff must be finite and > 0"),
        ("", ["--highpass-cutoff", "200000"], "demod.highpass_cutoff must lie below"),
    ])
    def test_rejected_before_demodulating_writing_nothing(self, tmp_path, monkeypatch,
                                                          capsys, config, flags, message):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = self.run_sim(tmp_path, src)
        conf = tmp_path / "demod.yaml"
        conf.write_text(config)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        self.fail_if_demodulated(monkeypatch)
        rc = main(["demod", "--config", str(conf), "--in", str(het),
                   "--out", str(tmp_path / "rec.wav"),
                   "--phase-csv", str(tmp_path / "p.csv")] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("rate,up,down", [(44100, 441, 4000), (22050, 441, 8000)])
    def test_cd_audio_rates_accepted(self, tmp_path, rate, up, down):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.05)
        het = self.run_sim(tmp_path, src)
        rec, pcsv = tmp_path / "rec.wav", tmp_path / "phase.csv"
        assert main(["demod", "--in", str(het), "--out", str(rec),
                     "--audio-rate", str(rate), "--phase-csv", str(pcsv)]) == 0
        n = read_trace(pcsv).n_samples
        audio = read_trace(rec)
        assert audio.sample_rate == rate
        assert audio.n_samples == -(-n * up // down)

    def test_non_numeric_csv_value_exits_3_naming_file(self, tmp_path, capsys):
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.01)
        het = tmp_path / "het.csv"
        assert main(["simulate", "--audio", str(src), "--out", str(het),
                     "--no-noise"]) == 0
        lines = het.read_bytes().split(b"\r\n")
        lines[3] = lines[3].split(b",")[0] + b",abc"
        het.write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        rc = main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "het.csv" in err and "abc" in err

    def test_short_record_warns_of_kept_transients(self, tmp_path, capsys):
        # 800 samples against a 300-sample guard (297 taps on the 10:1 grid)
        src = tmp_path / "short.wav"
        write_chirp(src, duration=0.002)
        het = self.run_sim(tmp_path, src)
        capsys.readouterr()
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(het), "--out", str(rec)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning:")
        assert "800 samples" in err[0] and "keeping 297 FIR transient samples" in err[0]
        assert read_trace(rec).n_samples == 80

    def test_long_record_does_not_warn(self, tmp_path, chirp_wav, capsys):
        het = self.run_sim(tmp_path, chirp_wav)
        capsys.readouterr()
        assert main(["demod", "--in", str(het), "--out", str(tmp_path / "rec.wav")]) == 0
        assert capsys.readouterr().err == ""

    def short_het(self, tmp_path, n):
        src = tmp_path / "short.wav"
        wavfile.write(src, FS, np.sin(2 * np.pi * 1000 * np.arange(n) / FS).astype(np.float32))
        return self.run_sim(tmp_path, src)

    # the high-pass pads 3 x (order + 1) samples at each edge and needs more
    @pytest.mark.parametrize("order,n", [(4, 10), (4, 15), (1, 6), (5, 18)])
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
                f"this record gives it {n}") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("order,n,flags", [
        (4, 16, []), (1, 7, []), (4, 10, ["--no-highpass"]), (4, 2, ["--no-highpass"]),
    ])
    def test_shortest_records_demodulate(self, tmp_path, order, n, flags):
        het = self.short_het(tmp_path, n)
        conf = tmp_path / "order.yaml"
        conf.write_text(f"demod:\n  filter_order: {order}\n")
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--config", str(conf), "--in", str(het),
                     "--out", str(rec)] + flags) == 0
        assert read_trace(rec).n_samples == -(-n // 10)

    def test_file_pipeline_matches_in_process(self, tmp_path, chirp_wav):
        from fibertap import edge_guard, iq_demodulate, synthesize_heterodyne, unwrap_phase
        het_file = self.run_sim(tmp_path, chirp_wav)
        rec = tmp_path / "rec.wav"
        assert main(["demod", "--in", str(het_file), "--out", str(rec)]) == 0
        via_files = read_trace(rec)

        cfg = default_config()
        rate0, src = read_wav(chirp_wav)
        level = spl_to_pressure(70.0)
        audio = SampledTrace(rate0, src / np.max(np.abs(src)) * level, AUDIO)
        phase = voice_to_phase(audio, cfg.coupling, cfg.interferometer.sensing_length)
        het = synthesize_heterodyne(cfg.interferometer, voice_phase=phase)
        dm = cfg.demod
        full = unwrap_phase(iq_demodulate(het, dm))
        _, guard = edge_guard(dm, rate0, cfg.band)
        trimmed = SampledTrace(rate0, full.samples[guard:full.n_samples - guard],
                               PHASE)
        rec2 = decimate_to_audio(highpass(trimmed, dm.highpass_cutoff, dm.filter_order),
                                 dm.audio_rate, cfg.band)
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

    @pytest.mark.parametrize("text,key", [
        ("demod:\n  lowpass_cutoff_hz: 30000.0\n", "demod.lowpass_cutoff"),
        ("laser:\n  linewidth_hz: 200\n", "laser.linewidth_hz"),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_2_naming_the_key(self, tmp_path, monkeypatch, capsys, command, text, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.yaml").write_text(text)
        assert main(self.COMMANDS[command] + ["--config", "bad.yaml"]) == 2
        assert key in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.yaml"]


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


class TestBudget:
    def test_length_sweep_monotone_and_anchor(self, tmp_path):
        out = tmp_path / "len.csv"
        rc = main(["budget", "--sweep", "length", "--from", "10", "--to", "10000",
                   "--points", "40", "--out", str(out)])
        assert rc == 0
        rows = read_budget_csv(out)
        limits = [r.limit_db for r in rows]
        assert all(b >= a for a, b in zip(limits, limits[1:]))

        single = tmp_path / "single.csv"
        rc = main(["budget", "--sweep", "length", "--from", "3000", "--to", "3000",
                   "--points", "1", "--out", str(single)])
        assert rc == 0
        assert read_budget_csv(single)[0].limit_db == pytest.approx(30.0, abs=0.5)

    def test_mismatch_sweep_slope(self, tmp_path):
        out = tmp_path / "mm.csv"
        rc = main(["budget", "--sweep", "mismatch", "--from", "1", "--to", "10000",
                   "--points", "40", "--out", str(out)])
        assert rc == 0
        rows = read_budget_csv(out)
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


class TestPrintConfig:
    def test_round_trip_digest(self, tmp_path):
        out = tmp_path / "resolved.yaml"
        assert main(["print-config", "--out", str(out)]) == 0
        from fibertap import load_config
        assert load_config(out).digest() == default_config().digest()
