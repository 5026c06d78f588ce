"""Reference computations and output checks, made apart from fibertap.

Nothing here imports fibertap. The ground truth comes from the input the
benchmark generated and the constants of the packaged default
configuration file; the closed forms are written out again from the
physics (Wanser's thermal noise ``C L ln(f_high/f_low)``, the small-delay
laser term ``tau0^2 (S0 df + k ln(f_high/f_low))``). Every ``check_*``
function returns a list of problems; an empty list means the output is
accepted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23

#: Band in which the recovered phase is compared with the ground truth: what
#: survives the 500 Hz high-pass and the decimation filter.
ERR_BAND_HZ = (500.0, 15000.0)
#: Recovered phase within this many dB of the closed-form floor is accepted.
FLOOR_TOL_DB = 1.0
MIN_CORRELATION = 0.99
#: Spectral subtraction must take at least this much energy out of the gaps.
MIN_GAP_DROP_DB = 6.0
#: Samples this close to a record edge or a syllable edge are not compared,
#: because the two high-pass implementations differ there.
EDGE_S = 0.025
REL_TOL = 1e-9


def load_constants(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


# --- input generation -------------------------------------------------------

@dataclass(frozen=True)
class Voice:
    """Synthetic voice record: float32 samples and its silent gaps (s)."""

    samples: np.ndarray
    sample_rate: float
    gaps: tuple


def make_voice(seed: int, duration: float, sample_rate: float) -> Voice:
    """Harmonic syllables (f0 120-220 Hz, gliding) between silent gaps.

    The record starts and ends in silence. Each syllable has a raised-cosine
    envelope and harmonics up to 3.5 kHz with a 1/k tilt.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    x = np.zeros(n)
    gaps = []
    t = 0.0
    while True:
        gap = rng.uniform(0.15, 0.35)
        syl = rng.uniform(0.15, 0.40)
        if t + gap + syl + 0.15 > duration:
            gaps.append((t, duration))
            break
        gaps.append((t, t + gap))
        i0 = int(round((t + gap) * sample_rate))
        i1 = int(round((t + gap + syl) * sample_rate))
        tt = np.arange(i1 - i0) / sample_rate
        f_a, f_b = rng.uniform(120.0, 220.0, size=2)
        cycles = f_a * tt + (f_b - f_a) * tt ** 2 / (2.0 * syl)
        envelope = 0.5 - 0.5 * np.cos(2.0 * np.pi * tt / syl)
        seg = np.zeros(tt.size)
        for k in range(1, int(3500.0 // max(f_a, f_b)) + 1):
            seg += rng.uniform(0.5, 1.0) / k * np.sin(
                2.0 * np.pi * k * cycles + rng.uniform(0.0, 2.0 * np.pi))
        x[i0:i1] = envelope * seg * rng.uniform(0.5, 1.0)
        t += gap + syl
    x *= 0.5 / np.max(np.abs(x))
    return Voice(x.astype(np.float32), float(sample_rate), tuple(gaps))


# --- closed forms -----------------------------------------------------------

def thermal_coefficient(c: dict) -> float:
    """C in S_th(f) = C L / f, rad^2 per meter."""
    fib, laser = c["fiber"], c["laser"]
    return (2.0 * math.pi * fib["refractive_index"] / laser["wavelength_m"]) ** 2 \
        * 2.0 * BOLTZMANN * fib["temperature_k"] * fib["loss_angle"] \
        / (3.0 * math.pi * fib["bulk_modulus_area_product_n"])


def thermal_rms(c: dict, length: float, f_low: float, f_high: float) -> float:
    return math.sqrt(thermal_coefficient(c) * length * math.log(f_high / f_low))


def laser_rms(c: dict, mismatch: float, f_low: float, f_high: float) -> float:
    tau0 = c["fiber"]["refractive_index"] * mismatch / SPEED_OF_LIGHT
    laser = c["laser"]
    return tau0 * math.sqrt(laser["white_freq_psd"] * (f_high - f_low)
                            + laser["flicker_coeff"] * math.log(f_high / f_low))


def noise_floor(c: dict, f_low: float, f_high: float) -> float:
    """Closed-form phase-noise RMS of the configured tap in a band."""
    ifo = c["interferometer"]
    mismatch = abs(ifo["reference_length_m"] - 2.0 * ifo["detect_length_m"])
    return math.hypot(thermal_rms(c, ifo["detect_length_m"], f_low, f_high),
                      laser_rms(c, mismatch, f_low, f_high))


def limit_db(c: dict, rms: float, sensing_length: float) -> float:
    """Sound level whose sine-equivalent RMS phase equals `rms`."""
    cp = c["coupling"]
    pressure = math.sqrt(2.0) * c["noise"]["snr_threshold"] * rms \
        / (cp["sensitivity_rad_per_pa_m"] * sensing_length)
    return 20.0 * math.log10(pressure / cp["spl_reference_pa"])


# --- ground truth -----------------------------------------------------------

def zero_phase_highpass(x: np.ndarray, fs: float, cutoff: float, order: int) -> np.ndarray:
    """Forward-backward digital Butterworth high-pass applied by FFT.

    The squared magnitude of a bilinear Butterworth is
    1 / (1 + (tan(pi fc/fs) / tan(pi f/fs))^(2N)); running it forward and
    backward applies that squared magnitude with zero phase.
    """
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(x.size, 1.0 / fs)
    gain = np.zeros(f.size)
    w = np.tan(np.pi * f[1:] / fs)
    gain[1:] = 1.0 / (1.0 + (math.tan(math.pi * cutoff / fs) / w) ** (2 * order))
    return np.fft.irfft(spec * gain, n=x.size)


@dataclass(frozen=True)
class Truth:
    """High-passed ground-truth phase at the simulation rate."""

    phase: np.ndarray
    sample_rate: float
    gaps: tuple
    floor_rms: float


def ground_truth(voice: Voice, c: dict, level_db: float) -> Truth:
    """sensitivity x sensing_length x pressure, scaled as `simulate --level-db`."""
    x = voice.samples.astype(np.float64)
    cp = c["coupling"]
    pressure = x * (cp["spl_reference_pa"] * 10.0 ** (level_db / 20.0) / np.max(np.abs(x)))
    phase = cp["sensitivity_rad_per_pa_m"] * c["interferometer"]["sensing_length_m"] * pressure
    dm = c["demod"]
    hp = zero_phase_highpass(phase, voice.sample_rate, dm["highpass_cutoff_hz"],
                             int(dm["filter_order"]))
    return Truth(hp, voice.sample_rate, voice.gaps, noise_floor(c, *ERR_BAND_HZ))


def aligned_truth(truth: Truth, rate: float, start_time: float, n: int) -> np.ndarray:
    """Ground truth on the sample grid of an output that starts at `start_time`."""
    step = truth.sample_rate / rate
    if abs(step - round(step)) > 1e-9:
        raise ValueError(f"output rate {rate} does not divide {truth.sample_rate}")
    step = int(round(step))
    i0 = int(round(start_time * truth.sample_rate))
    ref = truth.phase[i0:i0 + step * n:step]
    if ref.size != n:
        raise ValueError("output extends past the end of the input")
    return ref


def band_rms(x: np.ndarray, rate: float, f_low: float, f_high: float) -> float:
    """RMS of the part of `x` between f_low and f_high (one-sided FFT sum)."""
    spec = np.fft.rfft(x)
    f = np.fft.rfftfreq(x.size, 1.0 / rate)
    sel = (f >= f_low) & (f <= f_high)
    return math.sqrt(2.0 * np.sum(np.abs(spec[sel]) ** 2)) / x.size


# --- checks -----------------------------------------------------------------

@dataclass
class PhaseCheck:
    problems: list
    err_rad: float = math.nan
    correlation: float = math.nan


def check_phase(values: np.ndarray, rate: float, start_time: float,
                truth: Truth, what: str) -> PhaseCheck:
    """Recovered phase against the ground truth: correlation and noise floor."""
    try:
        ref = aligned_truth(truth, rate, start_time, values.size)
    except ValueError as exc:
        return PhaseCheck([f"{what}: {exc}"])
    edge = int(EDGE_S * rate)
    got, ref = values[edge:values.size - edge], ref[edge:ref.size - edge]
    if got.size < 4 * edge or not np.all(np.isfinite(got)):
        return PhaseCheck([f"{what}: too short or not finite"])
    corr = float(np.corrcoef(got, ref)[0, 1])
    err = band_rms(got - ref, rate, ERR_BAND_HZ[0], min(ERR_BAND_HZ[1], rate / 2.0))
    problems = []
    if not corr > MIN_CORRELATION:
        problems.append(f"{what}: correlation {corr:.6f} <= {MIN_CORRELATION}")
    off_db = 20.0 * math.log10(err / truth.floor_rms) if err > 0 else -math.inf
    if not abs(off_db) <= FLOOR_TOL_DB:
        problems.append(f"{what}: in-band error {err:.4g} rad is {off_db:+.2f} dB from "
                        f"the closed-form floor {truth.floor_rms:.4g} rad")
    return PhaseCheck(problems, err, corr)


def gap_energy(x: np.ndarray, rate: float, start_time: float, gaps) -> float:
    total = 0.0
    for t0, t1 in gaps:
        i0 = max(0, int(math.ceil((t0 + EDGE_S - start_time) * rate)))
        i1 = min(x.size, int(math.floor((t1 - EDGE_S - start_time) * rate)))
        if i1 > i0:
            total += float(np.sum(x[i0:i1] ** 2))
    return total


def check_enhanced(clean: np.ndarray, noisy: np.ndarray, rate: float, start_time: float,
                   truth: Truth) -> list:
    """Spectral subtraction lowers the silent gaps and keeps the voice."""
    if clean.size != noisy.size:
        return [f"enhanced length {clean.size} != input length {noisy.size}"]
    problems = []
    before = gap_energy(noisy, rate, start_time, truth.gaps)
    after = gap_energy(clean, rate, start_time, truth.gaps)
    drop = 10.0 * math.log10(before / after) if after > 0 else math.inf
    if not drop >= MIN_GAP_DROP_DB:
        problems.append(f"enhance: gap energy fell by {drop:.2f} dB < {MIN_GAP_DROP_DB} dB")
    was = check_phase(noisy, rate, start_time, truth, "enhance input").correlation
    now = check_phase(clean, rate, start_time, truth, "enhance output").correlation
    if not now >= was:
        problems.append(f"enhance: correlation dropped from {was:.6f} to {now:.6f}")
    return problems


def read_budget_csv(path) -> list:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, map(float, rec))) for rec in reader]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def check_length_sweep(rows, c: dict, lengths, anchor=(3000.0, 30.0)) -> list:
    """Thermal budget versus detecting-arm length, row by row."""
    if [r["x_value"] for r in rows] != list(lengths):
        return [f"length sweep: x values {[r['x_value'] for r in rows]} != {list(lengths)}"]
    band = c["band"]
    sensing = c["interferometer"]["sensing_length_m"]
    problems = []
    for r in rows:
        th = thermal_rms(c, r["x_value"], band["f_low_hz"], band["f_high_hz"])
        if not (_close(r["thermal_rms_rad"], th) and r["laser_rms_rad"] == 0.0
                and _close(r["total_rms_rad"], th)
                and abs(r["limit_db"] - limit_db(c, th, sensing)) <= 1e-9):
            problems.append(f"length sweep: row at {r['x_value']} m differs from the "
                            f"closed form ({r})")
    at = [r for r in rows if r["x_value"] == anchor[0]]
    if not at or abs(at[0]["limit_db"] - anchor[1]) > 1e-6:
        problems.append(f"length sweep: limit at {anchor[0]} m is not {anchor[1]} dB")
    return problems


def check_mismatch_sweep(rows, c: dict, mismatches, anchor=(100.0, 60.0)) -> list:
    """Laser (+ thermal) budget versus arm mismatch, row by row."""
    if [r["x_value"] for r in rows] != list(mismatches):
        return ["mismatch sweep: x values differ from the requested sweep"]
    band = c["band"]
    f_low, f_high = band["f_low_hz"], band["f_high_hz"]
    th = thermal_rms(c, c["interferometer"]["detect_length_m"], f_low, f_high)
    sensing = c["interferometer"]["sensing_length_m"]
    problems = []
    for r in rows:
        la = laser_rms(c, r["x_value"], f_low, f_high)
        total = math.hypot(th, la)
        if not (_close(r["laser_rms_rad"], la) and _close(r["thermal_rms_rad"], th)
                and _close(r["total_rms_rad"], total)
                and abs(r["limit_db"] - limit_db(c, total, sensing)) <= 1e-9):
            problems.append(f"mismatch sweep: row at {r['x_value']} m differs from the "
                            f"closed form ({r})")
    at = [r for r in rows if r["x_value"] == anchor[0]]
    if not at or abs(at[0]["limit_db"] - anchor[1]) > 0.01:
        problems.append(f"mismatch sweep: limit at {anchor[0]} m is not ~{anchor[1]} dB")
    return problems


def check_budget_json(json_path, csv_rows) -> list:
    """The JSON form of a budget equals its CSV form, value for value."""
    with open(json_path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    keys = ("x_value", "thermal_rms", "laser_rms", "total_rms", "limit_db")
    cols = ("x_value", "thermal_rms_rad", "laser_rms_rad", "total_rms_rad", "limit_db")
    got = [[float(r[k]) for k in keys] for r in rows]
    want = [[r[k] for k in cols] for r in csv_rows]
    return [] if got == want else ["budget JSON differs from the CSV budget"]


def check_mitigations(csv_path, summary_path, c: dict) -> list:
    """Mitigation table against the proportionalities of the paper."""
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    scen = c["scenarios"]
    cp = c["coupling"]
    pressure = cp["spl_reference_pa"] * 10.0 ** (scen["test_level_db"] / 20.0)
    base = scen["baseline"]

    def rms(s):
        return cp["sensitivity_rad_per_pa_m"] / s["bulk_modulus_scale"] \
            * s["sensing_length_m"] * pressure / math.sqrt(2.0)

    expect = [base] + list(scen["variants"])
    if [r["label"] for r in rows] != [s["label"] for s in expect]:
        return ["sensitivity: row labels differ from the configured scenarios"]
    problems = []
    for r, s in zip(rows, expect):
        delta = 20.0 * math.log10(rms(s) / rms(base))
        carrier = 20.0 * math.log10(s["reflection_amplitude"] / base["reflection_amplitude"])
        if not (_close(float(r["signal_rms_rad"]), rms(s))
                and abs(float(r["delta_db_vs_baseline"]) - delta) <= 1e-9
                and abs(float(r["carrier_delta_db"]) - carrier) <= 1e-9):
            problems.append(f"sensitivity: row {s['label']} differs ({r})")
    by_label = {r["label"]: r for r in rows}
    named = {"short-1m": ("delta_db_vs_baseline", 20.0 * math.log10(1.0 / 3.0), 0.01),
             "steel-wire": ("delta_db_vs_baseline", -20.0, 1e-9),
             "apc": ("carrier_delta_db", 20.0 * math.log10(0.0025 / 0.2), 1e-9)}
    for label, (col, want, tol) in named.items():
        if label not in by_label or abs(float(by_label[label][col]) - want) > tol:
            problems.append(f"sensitivity: {label} {col} is not {want:.4f} dB")
    def deltas(table):
        return [(r["label"], float(r["delta_db_vs_baseline"])) for r in table]

    if deltas(summary["rows"]) != deltas(rows):
        problems.append("sensitivity: JSON summary differs from the CSV table")
    return problems


def check_print_config(text: str, c: dict) -> list:
    return [] if yaml.safe_load(text) == c else ["print-config differs from the defaults"]
