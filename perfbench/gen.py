"""Seeded input generator. Runs before, and outside, the timed process.

``generate(workload, seed, workdir)`` writes every input a run needs under
``workdir`` (design files, spec files, Touchstone files and the arrays the
oracle compares against) plus ``manifest.json`` listing the jobs of one cycle.
The same seed always gives the same files. Nothing here imports herd.

The mix of a cycle is fixed and the values are seeded. A cycle of K jobs
takes its sizes at the midpoints of K equal strata of the log-uniform size
range, and formats, spacing, section counts and malformations follow the
stratum, so every seed carries the same mix of small and large, cheap and
dear jobs, and run-to-run spread comes from the program rather than the draw.
The seed sets everything else (geometry, materials, frequency ranges, noise,
where a file breaks) and the order of the strata, which is low-discrepancy,
so that a partial cycle is balanced too.

Non-finite Touchstone values (nan, inf) are never generated: rejecting them
is a robustness item with its own tests, and today's parser accepts them.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import oracle

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# herd's default per-aperture stopband drain, which sets the section count.
DEFAULT_KAPPA = 0.35062

# Parameter ranges of every workload, also copied into baseline.json.
RANGES = {
    # Perturbations of the prototype (a=4 mm, PTFE, 4 sections, 8 apertures).
    "design": {
        "a_m": [3.7e-3, 4.3e-3],
        "b_over_a": [1.15, 1.35],
        "d_m": [4.4e-3, 5.3e-3],
        "r_inner_m": [1.5e-3, 1.7e-3],
        "r_outer_over_inner": [2.2, 2.4],
        "coax_eps_r": [1.0, 1.0, 1.0, 2.1],
        "aperture_eps_r": [2.0, 2.4],
        "apertures_per_section": [7, 9],
        "sections": [3, 6],
        "section_pitch_m": [8e-3, 12e-3],
        "stopband_kappa": [0.33, 0.37],
    },
    "analyze_dense": {
        "jobs_per_cycle": 12,
        "points_log_uniform": [5000, 50000],
        "fstart_hz_log_uniform": [5e7, 2e8],
        "fstop_hz": [140e9, 150e9],
        "formats": ["json", "touchstone", "csv"],
        "spacing": ["linear", "log"],
        "claims": "strict12",
    },
    "measured_qa": {
        "files_per_cycle": 80,
        "malformed_per_cycle": 4,
        "rows_log_uniform": [2000, 20000],
        "fstart_hz": [1e7, 5e8],
        "fstop_hz": [146e9, 170e9],
        "formats": ["RI", "MA", "DB"],
        "units": ["HZ", "MHZ", "GHZ"],
        "magonly_share": 0.2,
        "digits": 12,
        "return_loss_db": [-32.0, -18.0],
        "noise_db_sigma": {"below_1db_loss": 0.004, "otherwise": 0.5},
        "phase_noise_deg_sigma": 0.5,
        "malformed_kinds": ["columns", "token", "frequency", "option_line"],
        "malformed_row_share": [0.1, 0.9],
    },
    "synth_explore": {
        "jobs_per_cycle": 200,
        "infeasible_per_cycle": 12,
        "z0_ohm": [40.0, 75.0],
        "f_passband_top_hz_log_uniform": [2e9, 15e9],
        "stop_over_passband_above_face_limit": [1.02, 3.5],
        "stop_over_passband_infeasible": [0.6, 0.98],
        "passband_il_budget_db": [0.05, 0.5],
        "sections": [2, 13],
        "max_stopband_attenuation_db": 150.0,
        "aperture_eps_r": [1.0, 2.1, 2.2, 2.55, 3.0],
        "coax_eps_r": [1.0, 1.0, 2.1],
        "apertures_per_section": [4, 12],
        "attenuation_at_corner_multiples": [1.2, 2.0, 3.5],
        "width_sweep_over_a": [0.6, 1.0, 10],
        "mode_chart_fmax_over_corner": 2.0,
    },
}


def _strata(k: int, lo: float, hi: float) -> np.ndarray:
    """Midpoints of k equal strata of a log-uniform range, ascending."""
    return np.rint(lo * (hi / lo) ** ((np.arange(k) + 0.5) / k)).astype(int)


def _order(rng: np.random.Generator, k: int) -> np.ndarray:
    """Stratum rank for each position, so every prefix spans the range."""
    x = (rng.random() + np.arange(k) * GOLDEN) % 1.0
    return np.argsort(np.argsort(x))


def _uniform(rng, bounds) -> float:
    return float(rng.uniform(*bounds))


def random_design(rng: np.random.Generator, sections: int | None = None) -> dict:
    r = RANGES["design"]
    a = _uniform(rng, r["a_m"])
    r_inner = _uniform(rng, r["r_inner_m"])
    return {
        "a_m": a,
        "b_m": a * _uniform(rng, r["b_over_a"]),
        "d_m": _uniform(rng, r["d_m"]),
        "r_inner_m": r_inner,
        "r_outer_m": r_inner * _uniform(rng, r["r_outer_over_inner"]),
        "coax_eps_r": float(rng.choice(r["coax_eps_r"])),
        "aperture_eps_r": _uniform(rng, r["aperture_eps_r"]),
        "apertures_per_section": int(rng.integers(r["apertures_per_section"][0], r["apertures_per_section"][1] + 1)),
        "sections": sections or int(rng.integers(r["sections"][0], r["sections"][1] + 1)),
        "section_pitch_m": _uniform(rng, r["section_pitch_m"]),
        "stopband_kappa": _uniform(rng, r["stopband_kappa"]),
        "dominant_mode_axis": "WIDTH",
    }


def _key_values(values: dict, comment: str) -> str:
    lines = [f"# {comment}"]
    lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


# --- analyze_dense -----------------------------------------------------------


def _analyze(rng: np.random.Generator, workdir: Path) -> list[dict]:
    r = RANGES["analyze_dense"]
    k = r["jobs_per_cycle"]
    sizes = _strata(k, *r["points_log_uniform"])
    sections = RANGES["design"]["sections"]
    (workdir / "designs").mkdir()
    (workdir / "out").mkdir()
    jobs = []
    for pos, rank in enumerate(_order(rng, k).tolist()):
        # Largest grid in JSON, the format that holds the most memory.
        fmt = r["formats"][(k - 1 - rank) % 3]
        design = random_design(rng, sections[0] + rank % (sections[1] - sections[0] + 1))
        path = workdir / "designs" / f"d{pos:02d}.design"
        path.write_text(_key_values(design, "perturbed prototype"))
        job = {
            "design_file": str(path),
            "design": design,
            "points": int(sizes[rank]),
            "fstart": float(np.exp(rng.uniform(*np.log(r["fstart_hz_log_uniform"])))),
            "fstop": _uniform(rng, r["fstop_hz"]),
            "log": bool(rank // 3 % 2),
            "format": fmt,
            "out": str(workdir / "out" / f"job{pos:02d}.{fmt}"),
            "sample_seed": int(rng.integers(2**31)),
        }
        argv = ["analyze", "--design", job["design_file"], "--fstart", repr(job["fstart"]),
                "--fstop", repr(job["fstop"]), "--points", str(job["points"])]
        if job["log"]:
            argv.append("--log")
        job["argv"] = argv + ["--format", fmt, "--claims", r["claims"], "--out", job["out"]]
        jobs.append(job)
    return jobs


# --- measured_qa -------------------------------------------------------------

_UNITS = {"HZ": 1.0, "MHZ": 1e6, "GHZ": 1e9}


def _measured_arrays(rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
    r = RANGES["measured_qa"]
    f = np.linspace(_uniform(rng, r["fstart_hz"]), _uniform(rng, r["fstop_hz"]), rows)
    model = oracle.s21(random_design(rng), f)
    loss_db = -20.0 * np.log10(np.abs(model))
    sigma = np.where(loss_db < 1.0, r["noise_db_sigma"]["below_1db_loss"], r["noise_db_sigma"]["otherwise"])
    phase_sigma = np.radians(r["phase_noise_deg_sigma"])
    s21 = model * 10.0 ** (rng.normal(0.0, sigma) / 20.0) * np.exp(1j * rng.normal(0.0, phase_sigma, rows))
    s12 = s21 * (1.0 + rng.normal(0.0, 1e-3, rows))
    rl = 10.0 ** (_uniform(rng, r["return_loss_db"]) / 20.0)
    s11 = rl * 10.0 ** (rng.normal(0.0, 1.0, rows) / 20.0) * np.exp(2j * np.pi * rng.random(rows))
    s22 = s11 * (1.0 + rng.normal(0.0, 0.05, rows)) * np.exp(1j * rng.normal(0.0, 0.1, rows))
    return f, np.stack([s11, s21, s12, s22], axis=1)


def _pairs(fmt: str, s: np.ndarray, mag_only: bool) -> np.ndarray:
    """(rows, 8) numbers as the file holds them, S11 S21 S12 S22 order."""
    mag = np.abs(s)
    if mag_only:
        first, second = (20.0 * np.log10(mag) if fmt == "DB" else mag), np.zeros_like(mag)
    elif fmt == "RI":
        first, second = s.real, s.imag
    else:
        first = 20.0 * np.log10(mag) if fmt == "DB" else mag
        second = np.degrees(np.angle(s))
    return np.stack([first, second], axis=2).reshape(len(s), 8)


def _touchstone_lines(rng, f, s, fmt, unit, mag_only, digits) -> tuple[list[str], list[int]]:
    """File lines, and for each data row the index of its line."""
    numbers = np.column_stack([f / _UNITS[unit], _pairs(fmt, s, mag_only)])
    template = " ".join([f"%.{digits}g"] * 9)
    lines = ["! seeded measurement for the herd benchmark", f"! {len(f)} points, {fmt} in {unit}"]
    if mag_only:
        lines.append("!MAGONLY")
    lines.append(f"# {unit} S {fmt} R 50")
    comment_rows = set(rng.choice(len(f), size=max(1, len(f) // 500), replace=False).tolist())
    row_lines = []
    for i, row in enumerate(numbers.tolist()):
        if i in comment_rows:
            lines.append(f"! marker {i}")
        text = template % tuple(row)
        if i % 997 == 3:
            text += "  ! inline note"
        row_lines.append(len(lines))
        lines.append(text)
    return lines, row_lines


def _break(lines: list[str], row_lines: list[int], kind: str, row: int) -> int:
    """Apply one malformation the parser must reject; return its 1-based line."""
    at = row_lines[row]
    if kind == "columns":
        lines[at] = lines[at].split("!")[0].rstrip().rsplit(" ", 1)[0]
    elif kind == "token":
        tokens = lines[at].split()
        tokens[3] = tokens[3].replace(".", ",") if "." in tokens[3] else tokens[3] + ",5"
        lines[at] = " ".join(tokens)
    elif kind == "frequency":
        tokens = lines[at].split()
        tokens[0] = lines[row_lines[row - 1]].split()[0]
        lines[at] = " ".join(tokens)
    else:
        option = next(i for i, line in enumerate(lines) if line.startswith("#"))
        first = row_lines[0]
        lines.insert(first, lines.pop(option))
        return first
    return at + 1


def _measured(rng: np.random.Generator, workdir: Path) -> list[dict]:
    r = RANGES["measured_qa"]
    k = r["files_per_cycle"]
    sizes = _strata(k, *r["rows_log_uniform"])
    step = k // r["malformed_per_cycle"]
    broken = {step // 2 + i * step: kind for i, kind in enumerate(r["malformed_kinds"])}
    (workdir / "s2p").mkdir()
    arrays = {}
    jobs = []
    for pos, rank in enumerate(_order(rng, k).tolist()):
        rows = int(sizes[rank])
        fmt = r["formats"][rank % 3]
        unit = r["units"][rank // 3 % 3]
        mag_only = rank % round(1 / r["magonly_share"]) == 1
        f, s = _measured_arrays(rng, rows)
        lines, row_lines = _touchstone_lines(rng, f, s, fmt, unit, mag_only, r["digits"])
        key = f"m{pos:02d}"
        job = {"file": str(workdir / "s2p" / f"{key}.s2p"), "key": key, "rows": rows,
               "format": fmt, "unit": unit, "mag_only": mag_only, "malformed": broken.get(rank)}
        if job["malformed"]:
            row = max(1, int(rows * _uniform(rng, r["malformed_row_share"])))
            job["error_line"] = _break(lines, row_lines, job["malformed"], row)
            job["rows"] = 0 if job["malformed"] == "option_line" else row
        else:
            arrays[f"f_{key}"] = f
            arrays[f"s_{key}"] = s
        Path(job["file"]).write_text("\n".join(lines) + "\n")
        jobs.append(job)
    np.savez(workdir / "expected.npz", **arrays)
    return jobs


# --- synth_explore -----------------------------------------------------------


def _spec(rng: np.random.Generator, infeasible: bool, sections: int) -> dict:
    """A spec whose synthesis needs ``sections`` sections, or one that the
    octagon-face rule makes infeasible."""
    r = RANGES["synth_explore"]
    per_aperture = -10.0 * math.log10(1.0 - DEFAULT_KAPPA)
    n_max = min(r["apertures_per_section"][1], int(r["max_stopband_attenuation_db"] / (per_aperture * sections)))
    while True:
        n_ap = int(rng.integers(r["apertures_per_section"][0], n_max + 1))
        per_section = n_ap * per_aperture
        spec = {
            "z0_ohm": _uniform(rng, r["z0_ohm"]),
            "f_passband_top_hz": float(np.exp(rng.uniform(*np.log(r["f_passband_top_hz_log_uniform"])))),
            "passband_il_budget_db": _uniform(rng, r["passband_il_budget_db"]),
            "f_stopband_start_hz": 0.0,
            "stopband_min_attenuation_db": per_section * (sections - rng.uniform(0.05, 0.95)),
            "aperture_eps_r": float(rng.choice(r["aperture_eps_r"])),
            "coax_eps_r": float(rng.choice(r["coax_eps_r"])),
            "apertures_per_section": n_ap,
        }
        # Stopband/passband ratio at which the aperture width equals the face.
        spec["f_stopband_start_hz"] = spec["f_passband_top_hz"]
        face, width = oracle.face_and_width(spec)
        ratio = width / face * _uniform(rng, r["stop_over_passband_infeasible" if infeasible else "stop_over_passband_above_face_limit"])
        if ratio > 1.05:
            spec["f_stopband_start_hz"] = spec["f_passband_top_hz"] * ratio
            if oracle.synthesis_infeasible(spec)[0] != infeasible:
                raise RuntimeError(f"spec draw landed on the wrong side of the face limit: {spec}")
            return spec


def _synth(rng: np.random.Generator, workdir: Path) -> list[dict]:
    r = RANGES["synth_explore"]
    k = r["jobs_per_cycle"]
    # Infeasible specs sit at evenly spaced positions, so each cycle keeps the
    # same mix of section counts and the median job lies inside one class.
    step = k / r["infeasible_per_cycle"]
    bad = {int(step / 2 + i * step) for i in range(r["infeasible_per_cycle"])}
    (workdir / "specs").mkdir()
    jobs = []
    low, high = r["sections"]
    for pos in range(k):
        spec = _spec(rng, pos in bad, low + pos % (high - low + 1))
        path = workdir / "specs" / f"s{pos:03d}.spec"
        path.write_text(_key_values(spec, "seeded targets"))
        jobs.append({"spec_file": str(path), "spec": spec, "infeasible": pos in bad})
    return jobs


MAKERS = {"analyze_dense": _analyze, "measured_qa": _measured, "synth_explore": _synth}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write one cycle of inputs for ``workload`` under ``workdir``."""
    rng = np.random.default_rng([list(MAKERS).index(workload), seed])
    manifest = {"workload": workload, "seed": seed, "jobs": MAKERS[workload](rng, workdir)}
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


if __name__ == "__main__":
    # python3 perfbench/gen.py WORKLOAD SEED WORKDIR
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
