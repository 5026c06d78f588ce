"""Golden output bytes: a tiny fixed pipeline must write the same files.

A 0.25 s gated tone, at 44.1 kHz and at 400 kS/s, goes through `simulate`
(WAV and CSV, seed 3; the tone is read as float32, and also as float64 at
400 kS/s and, unscaled, as 16-bit PCM at 44.1 kHz), `demod` (40 kHz with ``--phase-csv`` from the WAV,
32 kHz from the CSV, and from the WAV once with a 300 Hz high-pass and
once with ``--no-highpass``; the rates and the cutoff come from config
files), `enhance`, `budget`
(both sweeps, CSV and JSON) and `sensitivity`, in process. The sha256 of
every data file and sidecar is compared with the digests below. Manifests
hold timings and are left out, as is `print-config`.

The digests are tied to the numpy/scipy build they were recorded with
(numpy 2.x and scipy 1.x wheels on x86-64 Linux): a different BLAS, FFT or
libm may move the last ulp of a float and so every digest downstream of it.
Within that build, numpy computes float64 ``log10`` and ``power`` with
AVX-512 kernels (its ``X86_V4`` target) where the CPU has them and with its
baseline code elsewhere, and the two round a few of the budget sweeps'
values differently; `BASELINE_BUDGET` holds the four budget tables'
digests for the baseline code, which ``NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR"`` selects on an AVX-512 CPU.
A refactor that claims "same bytes" must pass this test unchanged; a
change that alters outputs on purpose records new digests and says why.
"""

import numpy as np
import pytest
from scipy.io import wavfile

from fibertap.cli import main
from fibertap.fileio import sha256_file

GOLDEN = {
    "het.wav":
        "e3e6e14bd55c866febebfc983efaf4e166a1ff6301c56f6e3e19ed4cae85f395",
    "het.csv":
        "4f5a848a859f9ae25f16f32f761a7ab80ff791f8a0ab2db1a2eee9e6031d56db",
    "het400k.wav":
        "a0468e234174be5876d1d04160b0414b21b7a7262d6967e3c5acd8f54025e83c",
    "het400k_f64.wav":
        "0537a0729d21d23c6d990cb497fccc9dedd87bcec13a09d750890d7839ac30d7",
    "het_pcm16.wav":
        "037611e83e575ebc97de8500dcb1097d8c23ba402c4cc09f1e821b8dd5f76a2c",
    "rec40.wav":
        "5aa459b6c0e1239e79942517244e06b84033f62f1e7e42af071748cfa04cdb94",
    "phase.csv":
        "541f506462ed6fbb7d4166fd9cba238db724821df1359c3ee45fd9413d3ceff2",
    "rec32.wav":
        "02c06b8487b7a9c44b7fe3200385415d32eb6716105b69cd3ba4583add43223c",
    "het.wav.meta.json":
        "28d1cdd04195a27e79cb814a6de2e6cbe1ad0b0f3387eb98897c3726f002ae0c",
    "het.csv.meta.json":
        "28d1cdd04195a27e79cb814a6de2e6cbe1ad0b0f3387eb98897c3726f002ae0c",
    "het400k.wav.meta.json":
        "28d1cdd04195a27e79cb814a6de2e6cbe1ad0b0f3387eb98897c3726f002ae0c",
    "het400k_f64.wav.meta.json":
        "28d1cdd04195a27e79cb814a6de2e6cbe1ad0b0f3387eb98897c3726f002ae0c",
    "het_pcm16.wav.meta.json":
        "28d1cdd04195a27e79cb814a6de2e6cbe1ad0b0f3387eb98897c3726f002ae0c",
    "rec40.wav.meta.json":
        "c2ad3438b4ed6ac13ab543f66bba14e6a7316ed65d4d7dd15042c658aac105ed",
    "phase.csv.meta.json":
        "c2ad3438b4ed6ac13ab543f66bba14e6a7316ed65d4d7dd15042c658aac105ed",
    "rec32.wav.meta.json":
        "daea38c19fbd3ac6c9b0d1712e1e816249dac7ab9316fb356ad5da51f3a911af",
    "rec_flags.wav":
        "e3204ff1bb10e807e8b9b70959b020922ea464aa840181ca41d2a8c5d9833e9b",
    "rec_nohp.wav":
        "f9f96c88c238519a781e5fe2fb5cd0d6277ea984a5cdd27e6cc0e35a203e49fd",
    "rec_flags.wav.meta.json":
        "c2ad3438b4ed6ac13ab543f66bba14e6a7316ed65d4d7dd15042c658aac105ed",
    "rec_nohp.wav.meta.json":
        "c2ad3438b4ed6ac13ab543f66bba14e6a7316ed65d4d7dd15042c658aac105ed",
    "enh.wav":
        "7156562c9fd5807d4b91712425aa43d0a16494673760f47fccb1a036270a2b63",
    "enh.wav.report.json":
        "deb0bb67c5d37b765d8cd04c6b32474d2a3317f6e784002ddda6c28e15498fcb",
    "mitigations.csv":
        "e4d643f46033aecceb803ffa52eee296c8ee74b797235f2be779c4810ebe2c81",
    "mitigations.csv.summary.json":
        "bbd7c44de6106d35cdf40fcc06fec40eb5e87786d4235904a3e998a1a358bba5",
    "budget_length.csv":
        "56d10bc9f5209e86dc06acfc85c42bb2a9e131d0a584aaeb6baaddc6c8966b04",
    "budget_length.json":
        "1eb5f83e96070bf72c8fe87894aba846551d992bc1f02fd376041c535eddf6c3",
    "budget_mismatch.csv":
        "7eddc428c4312351183f75acdf067c6c332290de2dce891de9b52ee69c9e52b0",
    "budget_mismatch.json":
        "91591530a7955ea78b93a28f5ff9a3505ca7341ef20ad888bea6747d4c28e1ed",
}

#: The budget tables where numpy's float64 log10 and power run its baseline
#: (X86_V2) code; every other digest is the same there.
BASELINE_BUDGET = {
    "budget_length.csv":
        "8a7c6ee706c81a941fe26d584f71c6c5b9e7a6aa2f9b3979834960f3c4a34676",
    "budget_length.json":
        "63a32f9fadd9509749400fd52d06b3591479c1731540a6f751aeabb91ed7adf3",
    "budget_mismatch.csv":
        "1c45a90e19bfba4fbb44697764a23d7eb7b2f8da75d896a14c14f3a18611fbb1",
    "budget_mismatch.json":
        "456ee23fd87805c5f295b6cbe95d1491d81e694a419d8b80a33da3a62ea76d84",
}


def golden_digests():
    """`GOLDEN` for the log10 and power kernels that numpy dispatches to."""
    info = np.lib.introspect.opt_func_info(func_name="log10|power", signature="float64")
    dispatch = {loop["current"] for loops in info.values() for loop in loops.values()}
    if dispatch == {"X86_V4"}:
        return GOLDEN
    if dispatch == {"baseline(X86_V2)"}:
        return {**GOLDEN, **BASELINE_BUDGET}
    pytest.fail(f"no digests recorded for log10 and power on {sorted(dispatch)}")


def gated_tone(path, rate, dtype=np.float32, duration=0.25, f0=1000.0, edge=0.08):
    """A 1 kHz tone with `edge` seconds of silence at each end, as a WAV of
    `dtype` samples (float, or int16 at 0.5 of full scale)."""
    t = np.arange(int(round(rate * duration))) / rate
    x = np.sin(2 * np.pi * f0 * t) * ((t >= edge) & (t < duration - edge))
    if dtype == np.int16:
        x = np.round(x * 16384.0)
    wavfile.write(path, int(rate), x.astype(dtype))


def run_pipeline(d):
    """Run the fixed pipeline in directory `d`; returns {name: path}."""
    def run(*args):
        assert main([str(a) for a in args]) == 0, args

    gated_tone(d / "tone44k.wav", 44100)
    gated_tone(d / "tone400k.wav", 400000)
    gated_tone(d / "tone400k_f64.wav", 400000, np.float64)
    gated_tone(d / "tone44k_pcm16.wav", 44100, np.int16)
    for src, out in (("tone44k.wav", "het.wav"), ("tone44k.wav", "het.csv"),
                     ("tone400k.wav", "het400k.wav"),
                     ("tone400k_f64.wav", "het400k_f64.wav")):
        run("simulate", "--audio", d / src, "--out", d / out,
            "--seed", 3, "--level-db", 70)
    # no --level-db: the PCM16 samples, scaled by 1/32768, are the pressure
    run("simulate", "--audio", d / "tone44k_pcm16.wav", "--out", d / "het_pcm16.wav",
        "--seed", 3)
    configs = {"rate40k.yaml": "demod:\n  audio_rate_hz: 40000\n",
               "rate32k.yaml": "demod:\n  audio_rate_hz: 32000\n",
               "hp300.yaml": "interferometer:\n  intermediate_frequency_hz: 25000\n"
                             "demod:\n  highpass_cutoff_hz: 300\n"}
    for name, text in configs.items():
        (d / name).write_text(text)
    run("demod", "--config", d / "rate40k.yaml", "--in", d / "het.wav",
        "--out", d / "rec40.wav", "--phase-csv", d / "phase.csv")
    run("demod", "--config", d / "rate32k.yaml", "--in", d / "het.csv",
        "--out", d / "rec32.wav")
    run("demod", "--config", d / "hp300.yaml", "--in", d / "het.wav",
        "--out", d / "rec_flags.wav")
    run("demod", "--in", d / "het.wav", "--out", d / "rec_nohp.wav", "--no-highpass")
    run("enhance", "--in", d / "rec40.wav", "--out", d / "enh.wav")
    for sweep in ("length", "mismatch"):
        for fmt in ("csv", "json"):
            run("budget", "--sweep", sweep, "--format", fmt,
                "--out", d / f"budget_{sweep}.{fmt}")
    run("sensitivity", "--out", d / "mitigations.csv")

    names = ["het.wav", "het.csv", "het400k.wav", "het400k_f64.wav", "het_pcm16.wav",
             "rec40.wav", "phase.csv",
             "rec32.wav", "rec_flags.wav", "rec_nohp.wav"]
    files = names + [n + ".meta.json" for n in names]
    files += ["enh.wav", "enh.wav.report.json", "mitigations.csv",
              "mitigations.csv.summary.json"]
    files += [f"budget_{s}.{f}" for s in ("length", "mismatch") for f in ("csv", "json")]
    return {name: d / name for name in files}


def test_outputs_match_golden_digests(tmp_path):
    digests = {name: sha256_file(p) for name, p in run_pipeline(tmp_path).items()}
    assert digests == golden_digests()
