"""Independent correctness oracle for the benchmark.

Nothing here imports herd. The forward model is the matched closed form from
the README model notes, written with numpy:

- corner frequency  fc = c0 / (2 w sqrt(eps_r)), w the dominant-axis width;
- below the corner, per-section power  (1 - exp(-2 gamma d))**n_ap  with
  gamma = (2 pi sqrt(eps_r) / c0) sqrt(fc^2 - f^2);
- above the corner, per-section power  (1 - kappa)**n_ap;
- a logistic blend running from 1% to 99% across 10% of the corner;
- s21 of N matched sections = (sqrt(power) * exp(-j 2 pi f pitch n_coax / c0))**N,
  s11 = 0.

The oracle runs in its own process (``serve``), so that its memory never
counts toward the workload process's peak. The worker sends plain numbers and
arrays pulled out of herd's results; each checker answers with a list of
problems, empty when the job is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

C0 = 299_792_458.0
ETA0 = 4e-7 * math.pi * C0
TRANSITION_WIDTH = 0.10
SHARPNESS = 2.0 * math.log(99.0)
OCTAGON_FACES = 8

# strict12 claim profile as documented in the README: (band, kind, threshold).
STRICT12 = (
    ((0.0, 12e9), "MAX_IL", 0.15),
    ((70e9, 145e9), "MIN_ATT", 60.0),
    ((4e9, 8e9), "MAX_RIPPLE", 0.1),
)

# Relative tolerance for model values, with an absolute floor in dB for
# values that sit at 0 dB, where a relative test means nothing.
REL_TOL = 1e-9
DB_FLOOR = 1e-12
# A verdict this close to its threshold may go either way under rounding.
VERDICT_SLACK_DB = 1e-6
# Rows of each analyze output compared value by value, besides first and last.
SAMPLED_ROWS = 200


def close(a, b, rel=REL_TOL, floor=0.0) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor


# --- forward model -----------------------------------------------------------


def corner(p: dict) -> float:
    width = p["a_m"] if p["dominant_mode_axis"] == "WIDTH" else p["b_m"]
    return C0 / (2.0 * width * math.sqrt(p["aperture_eps_r"]))


def section_power(p: dict, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    fc = corner(p)
    n_ap = p["apertures_per_section"]
    scale = 2.0 * math.pi * math.sqrt(p["aperture_eps_r"]) / C0
    below = f < fc
    gamma = scale * np.sqrt(np.where(below, (fc - f) * (fc + f), 0.0))
    amp = np.exp(-gamma * p["d_m"])
    t_below = np.where(below, (1.0 - amp * amp) ** n_ap, 0.0)
    t_above = (1.0 - p["stopband_kappa"]) ** n_ap
    arg = SHARPNESS * (f - fc) / (TRANSITION_WIDTH * fc)
    with np.errstate(over="ignore"):
        weight = 1.0 / (1.0 + np.exp(-np.clip(arg, -700.0, 700.0)))
    weight = np.where(arg <= -700.0, 0.0, np.where(arg >= 700.0, 1.0, weight))
    return (1.0 - weight) * t_below + weight * t_above


def s21(p: dict, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    n = p["sections"]
    phase = -2.0 * math.pi * f * p["section_pitch_m"] * math.sqrt(p["coax_eps_r"]) / C0
    return np.sqrt(section_power(p, f)) ** n * np.exp(1j * n * phase)


def grid(start: float, stop: float, points: int, log: bool) -> np.ndarray:
    return np.geomspace(start, stop, points) if log else np.linspace(start, stop, points)


def coax_z0(r_inner: float, r_outer: float, eps_r: float) -> float:
    return ETA0 / (2.0 * math.pi) / math.sqrt(eps_r) * math.log(r_outer / r_inner)


def face_and_width(spec: dict) -> tuple[float, float]:
    """Face of the octagonal body around the synthesized coax, and the
    aperture width that puts the corner at the stopband start [m]."""
    n_coax = math.sqrt(spec["coax_eps_r"])
    ratio = math.exp(2.0 * math.pi * spec["z0_ohm"] * n_coax / ETA0)
    r_inner = C0 / (n_coax * spec["f_passband_top_hz"] * math.pi * (1.0 + ratio))
    face = 2.0 * ratio * r_inner * math.tan(math.pi / OCTAGON_FACES)
    width = C0 / (2.0 * spec["f_stopband_start_hz"] * math.sqrt(spec["aperture_eps_r"]))
    return face, width


def synthesis_infeasible(spec: dict) -> tuple[bool, float]:
    """Octagon-face test: the aperture must be narrower than one face.
    Returns the verdict and the relative distance from the boundary."""
    face, width = face_and_width(spec)
    return width >= face, abs(width - face) / face


def inband_il_db(p: dict, f: float) -> float:
    """In-band loss over all apertures, (1 - |F|^2)**A in dB."""
    fc = corner(p)
    gamma = 2.0 * math.pi * math.sqrt(p["aperture_eps_r"]) / C0 * math.sqrt((fc - f) * (fc + f))
    amp = math.exp(-gamma * p["d_m"])
    total = p["apertures_per_section"] * p["sections"]
    return -10.0 * total * math.log10(1.0 - amp * amp)


def mode_cutoffs(a: float, b: float, eps_r: float, f_max: float) -> np.ndarray:
    n_fill = math.sqrt(eps_r)
    m_max = math.ceil(2.0 * f_max * a * n_fill / C0) + 1
    n_max = math.ceil(2.0 * f_max * b * n_fill / C0) + 1
    m, n = np.meshgrid(np.arange(m_max + 1), np.arange(n_max + 1), indexing="ij")
    fc = C0 / (2.0 * n_fill) * np.hypot(m / a, n / b)
    return np.sort(fc[(m + n > 0) & (fc <= f_max * (1.0 + 1e-12))])


# --- claim verdicts ----------------------------------------------------------


def verdicts(freqs: np.ndarray, il_db: np.ndarray) -> list[tuple[bool | None, float | None]]:
    """Per strict12 claim: (passed, observed dB). ``passed`` is None when the
    observed value is within rounding of the threshold, so either verdict is
    acceptable; an empty band fails with observed None."""
    out = []
    for (lo, hi), kind, threshold in STRICT12:
        inside = il_db[(freqs >= lo) & (freqs <= hi)]
        if inside.size == 0:
            out.append((False, None))
            continue
        if kind == "MAX_IL":
            observed = float(inside.max())
            passed = observed <= threshold
        elif kind == "MIN_ATT":
            observed = float(inside.min())
            passed = observed >= threshold
        else:
            observed = float(inside.max() - inside.min())
            passed = observed <= threshold
        if abs(observed - threshold) <= VERDICT_SLACK_DB:
            passed = None
        out.append((passed, observed))
    return out


def _verdicts_agree(expected, passed_flags) -> bool:
    return len(expected) == len(passed_flags) and all(
        want is None or want == got for (want, _), got in zip(expected, passed_flags)
    )


# --- analyze_dense -----------------------------------------------------------


def check_analyze(job: dict, outcome: tuple[str, int], arrays=None) -> list[str]:
    """Check one `herd analyze` run, (output path, exit code), then delete
    its output file.

    A seeded sample of rows is compared value by value with the closed form;
    the row count, the claim verdicts and the exit code are checked in full.
    """
    path, exit_code = outcome
    out = Path(path)
    text = out.read_text()
    out.unlink()
    rng = np.random.default_rng(job["sample_seed"])
    sample = np.unique(np.concatenate([[0, job["points"] - 1], rng.integers(0, job["points"], SAMPLED_ROWS)]))
    p = job["design"]
    f = grid(job["fstart"], job["fstop"], job["points"], job["log"])
    want = s21(p, f)
    il = -20.0 * np.log10(np.abs(want))
    expected = verdicts(f, il)
    problems = []
    any_fail = any(passed is False for passed, _ in expected)
    all_pass = all(passed is True for passed, _ in expected)
    if (exit_code == 1 and all_pass) or (exit_code == 0 and any_fail) or exit_code not in (0, 1):
        problems.append(f"exit code {exit_code} disagrees with verdicts {expected}")

    fmt = job["format"]
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["response"]
        if len(rows) != job["points"]:
            return problems + [f"{len(rows)} response rows, expected {job['points']}"]
        got_f = np.array([rows[i]["frequency_hz"] for i in sample])
        got_db = np.array([rows[i]["s21_db"] for i in sample], dtype=float)
        if any(rows[i]["s11_db"] is not None for i in sample):
            problems.append("s11_db of a matched model must be null (-inf)")
        flags = [claim["passed"] for claim in doc["claims"]]
        if not _verdicts_agree(expected, flags) or doc["claims_passed"] != (exit_code == 0):
            problems.append(f"claims {flags} disagree with verdicts {expected}")
    elif fmt == "csv":
        lines = text.splitlines()
        data = lines[1 : 1 + job["points"]]
        if lines[0] != "frequency_hz,s21_db,s11_db" or len(data) != job["points"] or data[-1].startswith("#"):
            return problems + ["csv header or row count wrong"]
        fields = [data[i].split(",") for i in sample]
        got_f = np.array([float(row[0]) for row in fields])
        got_db = np.array([float(row[1]) for row in fields])
        if any(row[2] != "-inf" for row in fields):
            problems.append("s11_db of a matched model must be -inf")
        flags = [line[2:6] == "PASS" for line in lines if line.startswith(("# PASS", "# FAIL"))]
        if not _verdicts_agree(expected, flags):
            problems.append(f"claim lines {flags} disagree with verdicts {expected}")
    else:
        lines = [line for line in text.splitlines() if not line.startswith("!")]
        if lines[0].split() != ["#", "GHZ", "S", "DB", "R", "50"] or len(lines) != job["points"] + 1:
            return problems + ["touchstone option line or row count wrong"]
        fields = np.array([lines[1 + i].split() for i in sample], dtype=float)
        got_f = fields[:, 0] * 1e9
        got = 10.0 ** (fields[:, 3] / 20.0) * np.exp(1j * np.radians(fields[:, 4]))
        if not np.all(np.abs(got - want[sample]) <= REL_TOL * np.abs(want[sample])):
            problems.append("touchstone s21 differs from the closed form")
        if not (np.all(fields[:, 1] == -400.0) and np.array_equal(fields[:, 3:5], fields[:, 5:7])):
            problems.append("touchstone s11/s12 columns wrong for a matched reciprocal model")
        got_db = fields[:, 3]
    if not np.all(close(got_f, f[sample])):
        problems.append("frequency column differs from the requested grid")
    if not np.all(close(got_db, 20.0 * np.log10(np.abs(want[sample])), floor=DB_FLOOR)):
        problems.append("s21_db differs from the closed form")
    return problems


# --- measured_qa -------------------------------------------------------------


def check_measured(job: dict, got: dict, arrays) -> list[str]:
    """``got`` holds either ``error`` (exception class, line) or the parsed
    ``f``, ``s`` ((rows, 4) complex, S11 S21 S12 S22), ``mag_only`` and the
    claim ``passed``/``observed`` lists; ``arrays`` the generator's arrays."""
    if "error" in got:
        error_type, error_line = got["error"]
        if not job["malformed"]:
            return [f"valid file rejected: {error_type} at line {error_line}"]
        if error_type != "ParseError" or error_line != job["error_line"]:
            return [f"expected ParseError at line {job['error_line']}, got {error_type} at {error_line}"]
        return []
    if job["malformed"]:
        return [f"malformed file ({job['malformed']}) was accepted"]
    expected_f, expected_s = arrays[f"f_{job['key']}"], arrays[f"s_{job['key']}"]
    got_f, got_s, mag_only = got["f"], got["s"], got["mag_only"]
    claim_flags, claim_observed = got["passed"], got["observed"]
    problems = []
    if got_s.shape != expected_s.shape:
        return [f"parsed {got_s.shape[0]} rows, expected {expected_s.shape[0]}"]
    if mag_only != job["mag_only"]:
        problems.append("MAGONLY flag not carried")
    if not np.all(close(got_f, expected_f, rel=1e-11)):
        problems.append("parsed frequencies differ from the generated ones")
    want = np.abs(expected_s) if job["mag_only"] else expected_s
    if job["mag_only"] and np.any(got_s.imag != 0.0):
        problems.append("MAGONLY phases are not zero")
    if not np.all(np.abs(got_s - want) <= REL_TOL * np.abs(want) + 1e-15):
        problems.append("parsed S-parameters differ from the generated ones")
    il = -20.0 * np.log10(np.abs(expected_s[:, 1]))
    expected = verdicts(expected_f, il)
    if not _verdicts_agree(expected, claim_flags):
        problems.append(f"verdicts {claim_flags} disagree with oracle {expected}")
    for (_, want_obs), got_obs in zip(expected, claim_observed):
        if (want_obs is None) != (got_obs is None) or (
            want_obs is not None and abs(want_obs - got_obs) > VERDICT_SLACK_DB
        ):
            problems.append(f"observed {got_obs} dB, oracle {want_obs} dB")
    return problems


# --- synth_explore -----------------------------------------------------------


def check_synthesis(job: dict, result: dict, arrays=None) -> list[str]:
    """``result`` carries what the worker read off herd's objects:
    ``spec_round_trip`` and ``infeasible``; for feasible specs also
    ``design`` (file-format keys), ``margins``, ``design_round_trip``,
    ``attenuation`` [(f, [(count, dB)])], ``sweep`` [(width, f, dB)],
    ``mode_fmax`` and ``modes`` [cutoff]."""
    spec = job["spec"]
    problems = []
    if not result["spec_round_trip"]:
        problems.append("loads_design_spec(dumps_design_spec(spec)) != spec")
    infeasible, distance = synthesis_infeasible(spec)
    if result["infeasible"] != infeasible and distance > 1e-9:
        return problems + [f"infeasible={result['infeasible']}, oracle says {infeasible}"]
    if result["infeasible"]:
        return problems

    d = result["design"]
    if min(result["margins"]) < -1e-9:
        problems.append(f"negative margin {result['margins']}")
    if not close(corner(d), spec["f_stopband_start_hz"], rel=1e-12):
        problems.append(f"corner {corner(d)!r} != f_stopband_start {spec['f_stopband_start_hz']!r}")
    if not close(coax_z0(d["r_inner_m"], d["r_outer_m"], d["coax_eps_r"]), spec["z0_ohm"]):
        problems.append("coax Z0 differs from the spec")
    if not result["design_round_trip"]:
        problems.append("loads_design(dumps_design(d)) != d")

    for f, rows in result["attenuation"]:
        per_section = -10.0 * math.log10(float(section_power(d, np.array([f]))[0]))
        counts = np.array([count for count, _ in rows], dtype=float)
        if not np.all(close([db for _, db in rows], counts * per_section, floor=DB_FLOOR)):
            problems.append(f"attenuation vs sections at {f!r} Hz differs from the closed form")
    for width, f, il in result["sweep"]:
        if not close(il, inband_il_db({**d, "a_m": width}, f), floor=DB_FLOOR):
            problems.append(f"in-band loss at width {width!r} differs from the closed form")
    want = mode_cutoffs(d["a_m"], d["b_m"], d["aperture_eps_r"], result["mode_fmax"])
    got = np.asarray(result["modes"], dtype=float)
    if got.size != want.size and not (
        got.size == want.size - 1 and close(want[-1], result["mode_fmax"], rel=1e-12)
    ):
        problems.append(f"mode chart has {got.size} modes, oracle {want.size}")
    elif not (np.all(np.diff(got) >= 0) and np.all(close(got, want[: got.size], rel=1e-12))):
        problems.append("mode chart cutoffs differ from the closed form")
    return problems


CHECKS = {"analyze_dense": check_analyze, "measured_qa": check_measured, "synth_explore": check_synthesis}


def serve(conn, workdir: str) -> None:
    """Oracle process: say when loaded, then answer each (key, job position,
    data) with (key, problems) until the worker sends None."""
    manifest = json.loads((Path(workdir) / "manifest.json").read_text())
    check = CHECKS[manifest["workload"]]
    path = Path(workdir) / "expected.npz"
    arrays = np.load(path) if path.exists() else None
    conn.send("ready")
    while (message := conn.recv()) is not None:
        key, position, data = message
        conn.send((key, check(manifest["jobs"][position], data, arrays)))
