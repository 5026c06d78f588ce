"""Golden output bytes: a tiny fixed pipeline must write the same files.

A 0.25 s gated tone, at 44.1 kHz and at 400 kS/s, goes through `simulate`
(WAV and CSV, seed 3; the tone is read as float32, and also as float64 at
400 kS/s and, unscaled, as 16-bit PCM at 44.1 kHz), `demod` (40 kHz with ``--phase-csv`` from the WAV,
32 kHz from the CSV, and from the WAV once with ``--beat-frequency`` and
``--highpass-cutoff`` and once with ``--no-highpass``), `enhance`, `budget`
(both sweeps, CSV and JSON) and `sensitivity`, in process. The sha256 of
every data file and sidecar is compared with the digests below. Manifests
hold timings and are left out, as is `print-config`.

The digests are tied to the numpy/scipy build they were recorded with
(numpy 2.x and scipy 1.x wheels on x86-64 Linux): a different BLAS, FFT or
libm may move the last ulp of a float and so every digest downstream of it.
A refactor that claims "same bytes" must pass this test unchanged; a
change that alters outputs on purpose records new digests and says why.
"""

import numpy as np
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
        "e386f3d189f48e3245e22bfa2e9164dbd69122a29382e6e304ce7555418d62f2",
    "phase.csv":
        "7ef952ae31ce7efb9c8b7833567deb02f76209a7684badd51bde4928a9e3efe5",
    "rec32.wav":
        "064387606617c9f580bd0ce514327bff04280cd1939a35ac0a794ab11e6fcf4b",
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
        "fbe1f54e8d8332bd2ad6ad78ea347c751167b6a21864dd8827b2e5a1ab8ad0e0",
    "phase.csv.meta.json":
        "599adf1ff5ca4dfdf6698accf6691eaa41b424220685f0e4c3c622a11b9e7612",
    "rec32.wav.meta.json":
        "dce37e81c5a4daa0c353ee2be2f03b329e06be7f5dd0a03b2f439d2cbb550e94",
    "rec_flags.wav":
        "84f7c17bd8a45e62fda8aeb919aecf019945d0bdd38e62185ca440dbd665306b",
    "rec_nohp.wav":
        "b7c94b9db83d8d2e1aca7350aea7642ac27df7cbaa5b88353d4764f843345aa4",
    "rec_flags.wav.meta.json":
        "fbe1f54e8d8332bd2ad6ad78ea347c751167b6a21864dd8827b2e5a1ab8ad0e0",
    "rec_nohp.wav.meta.json":
        "fbe1f54e8d8332bd2ad6ad78ea347c751167b6a21864dd8827b2e5a1ab8ad0e0",
    "enh.wav":
        "4f35a6c29cb835d107b572603da5179cadbc03c0b51be9e7b19a1133b755331f",
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
    run("demod", "--in", d / "het.wav", "--out", d / "rec40.wav",
        "--audio-rate", 40000, "--phase-csv", d / "phase.csv")
    run("demod", "--in", d / "het.csv", "--out", d / "rec32.wav", "--audio-rate", 32000)
    run("demod", "--in", d / "het.wav", "--out", d / "rec_flags.wav",
        "--beat-frequency", 25000, "--highpass-cutoff", 300)
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
    assert digests == GOLDEN
