"""Command-line front end: analysis, synthesis, sweeps, compliance checking.

Exit codes: 0 success, 1 compliance failure, 2 input/parse error,
3 infeasible synthesis. Output formatting uses fixed significant digits so
identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cascade import MAX_SECTIONS, attenuation_vs_sections, filter_response, max_singular_value
from .errors import DomainError, InfeasibleDesignError, ParseError
from .leakage import inband_transmission
from .model import (
    AIR,
    DESIGN_FILE,
    FilterDesign,
    FrequencyGrid,
    Material,
    build_part,
    dumps_design,
    loads_design,
    with_aperture,
)
from .modes import (
    coax_char_impedance,
    coax_first_higher_mode_cutoff,
    corner_frequency,
    mode_chart,
    solve_inner_radius,
)
from .synthesis import loads_design_spec, synthesize
from .tsio import (
    Claim,
    ClaimKind,
    band_metrics,
    check_claims,
    insertion_loss_db,
    parse_touchstone,
    return_loss_db,
    row_blocks,
    touchstone_blocks,
)

EXIT_OK = 0
EXIT_CLAIMS_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3

CLAIM_PROFILES: dict[str, list[Claim]] = {
    "default": [
        Claim((0.0, 10e9), ClaimKind.MAX_IL, 0.15, "passband insertion loss up to 10 GHz"),
        Claim((70e9, 145e9), ClaimKind.MIN_ATT, 60.0, "stopband attenuation 70-145 GHz"),
    ],
    "strict12": [
        Claim((0.0, 12e9), ClaimKind.MAX_IL, 0.15, "passband insertion loss up to 12 GHz"),
        Claim((70e9, 145e9), ClaimKind.MIN_ATT, 60.0, "stopband attenuation 70-145 GHz"),
        Claim((4e9, 8e9), ClaimKind.MAX_RIPPLE, 0.1, "passband ripple in the 4-8 GHz band"),
    ],
}

_SWEEP_FIELDS = {"a": "width_a", "b": "height_b", "d": "depth_d"}

# Most rows `herd sweep` writes. Its JSON output holds about 1.5 kB per row
# (CSV 0.6 kB), so a sweep at the bound stays under the 1 GiB that
# model.MAX_GRID_POINTS budgets.
MAX_SWEEP_STEPS = 500_000

# `compare` takes a measured point for gain when the largest singular value of
# its S matrix exceeds 1 by more than this many dB. A passband measurement
# carries noise of a few thousandths of a dB, which must not read as gain.
GAIN_TOL_DB = 0.05


def _fmt(x) -> str:
    """12 significant digits; ``n/a`` for a value the model does not give."""
    return "n/a" if x is None else format(float(x), ".12g")


def _finite(value):
    """``value`` with each float in it, at any depth, that is not finite
    replaced by None: null in JSON, ``n/a`` in text."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _json_doc(doc: dict) -> str:
    return json.dumps(_finite(doc), indent=2) + "\n"


def _kv_lines(values: dict) -> list[str]:
    return [f"{key} = {_fmt(value)}" for key, value in values.items()]


def _csv_lines(keys: tuple[str, ...], rows: list[dict]) -> list[str]:
    """A header of ``keys``, then one line per row dict, its values in that order."""
    lines = [",".join(keys)]
    lines += [",".join(_fmt(row[key]) for key in keys) for row in rows]
    return lines


def _emit(blocks, out: str | None) -> None:
    """Write text ``blocks`` in order to the file ``out``, or to stdout."""
    if out:
        with open(out, "w") as stream:
            stream.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _load_design(path: str) -> FilterDesign:
    return loads_design(Path(path).read_text())


def _band(row: dict) -> str:
    lo, hi = row["band_hz"]
    return f"band [{_fmt(lo)}, {_fmt(hi)}] Hz"


def _claim_doc(result) -> dict:
    claim = result.claim
    return {
        "description": claim.describe(),
        "band_hz": list(claim.band),
        "kind": claim.kind.value,
        "threshold_db": claim.threshold_db,
        "observed_db": result.observed_db,
        "passed": result.passed,
        "error": result.error,
    }


def _claim_lines(claims: list[dict]) -> list[str]:
    lines = []
    for claim in claims:
        if claim["error"] is not None:
            detail = f"error: {claim['error']}"
        else:
            detail = (
                f"observed {_fmt(claim['observed_db'])} dB "
                f"(threshold {_fmt(claim['threshold_db'])} dB)"
            )
        status = "PASS" if claim["passed"] else "FAIL"
        lines.append(f"{status}  {claim['description']}: {detail}")
    return lines


# --- modes -------------------------------------------------------------------


def _cmd_modes(args) -> int:
    chart = None
    corner = None
    if args.design:
        design = _load_design(args.design)
        geometry = design.coax
        fill = design.coax_fill
        z0 = coax_char_impedance(geometry, fill)
        corner = corner_frequency(design)
        fmax = args.fmax if args.fmax is not None else 2.0 * corner
        chart = mode_chart(design.aperture, design.aperture_fill, fmax)
        chart = [{"m": e.index.m, "n": e.index.n, "cutoff_hz": e.cutoff_hz} for e in chart]
    elif args.z0 is not None and args.single_mode is not None:
        fill = AIR
        if args.coax_eps is not None:
            fill = build_part("coax_fill", Material, {"eps_r": args.coax_eps})
        geometry = solve_inner_radius(args.z0, args.single_mode, fill)
        z0 = args.z0
    else:
        raise DomainError("modes needs --design, or both --z0 and --single-mode")
    scalars = {
        "z0_ohm": z0,
        "r_inner_m": geometry.r_inner,
        "r_outer_m": geometry.r_outer,
        "single_mode_limit_hz": coax_first_higher_mode_cutoff(geometry, fill),
        "corner_frequency_hz": corner,
    }

    if args.format == "json":
        _emit([_json_doc({"command": "modes", **scalars, "mode_chart": chart})], args.out)
        return EXIT_OK
    lines = _kv_lines({key: value for key, value in scalars.items() if value is not None})
    if chart is not None:
        if args.format == "csv":
            lines = [f"# {line}" for line in lines] + _csv_lines(("m", "n", "cutoff_hz"), chart)
        else:
            lines.append("mode chart (m, n, cutoff_hz):")
            lines += [f"  TE{row['m']}{row['n']}  {_fmt(row['cutoff_hz'])}" for row in chart]
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _analysis_grid(args) -> FrequencyGrid:
    spacing = FrequencyGrid.logarithmic if args.log else FrequencyGrid.linear
    return spacing(args.fstart, args.fstop, args.points)


# The "response" array's objects as json.dumps(..., indent=2) lays them out at
# that depth, in six parts per row: the fixed texts, with None where the
# frequency, s21 and s11 strings go. A row opens by closing the row before it,
# except the first of a block. The slot is the string that stands in for the
# array until it is spliced in. Only "command" and "grid" precede "response",
# so the first occurrence of the slot is the response's.
_ROW_OPEN = '    {\n      "frequency_hz": '
_ROW_CLOSE = "\n    }"
_ROW_PARTS = (
    _ROW_CLOSE + ",\n" + _ROW_OPEN, None, ',\n      "s21_db": ', None, ',\n      "s11_db": ', None
)
_RESPONSE_SLOT = "\0response"


def _json_blocks(text: str, columns):
    """``text`` in pieces, with its response slot replaced by the list of
    objects built from ``columns`` (frequency, s21 and s11 arrays), as
    json.dumps would write it, but with each block of rows laid out by one
    join of its column strings and the fixed texts between them."""
    head, _, tail = text.partition(json.dumps(_RESPONSE_SLOT))
    yield head + "[\n"
    separator = ""
    for f, s21, s11 in row_blocks(columns, "json"):
        parts = [*_ROW_PARTS] * len(f)
        parts[0] = separator + _ROW_OPEN
        parts[1::6] = f
        parts[3::6] = s21
        parts[5::6] = s11
        parts.append(_ROW_CLOSE)
        yield "".join(parts)
        separator = ",\n"
    yield "\n  ]" + tail


def _csv_blocks(columns, notes: list[str]):
    """The CSV document in pieces: the header, the rows of ``columns`` in
    blocks, then each of ``notes`` as a ``# `` line."""
    yield "frequency_hz,s21_db,s11_db\n"
    # "%.12g" formats a float exactly as _fmt does.
    for strings in row_blocks(columns, "%.12g"):
        yield "\n".join(map(",".join, zip(*strings))) + "\n"
    yield "".join(f"# {line}\n" for line in notes)


# Each band metric figure, by its key in JSON and its label in text.
_METRIC_LABELS = {
    "max_insertion_loss_db": "max_il",
    "min_attenuation_db": "min_att",
    "max_ripple_db": "ripple",
    "worst_return_loss_db": "worst_rl",
}


def _metric_rows(table, profile: list[Claim]) -> list[dict]:
    """The metrics of each distinct claim band, or the error the band gives.
    A figure that is not finite (the return loss of a matched table, the
    loss of a point without transmission) is n/a."""
    rows = []
    for band in dict.fromkeys(claim.band for claim in profile):
        try:
            metric = band_metrics(table, band)
        except DomainError as exc:
            rows.append({"band_hz": list(band), "error": str(exc)})
            continue
        figures = {key: getattr(metric, key) for key in _METRIC_LABELS}
        rows.append({"band_hz": list(band), **figures})
    return _finite(rows)


def _metric_lines(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        if "error" in row:
            detail = row["error"]
        else:
            figures = _METRIC_LABELS.items()
            detail = " ".join(f"{label}={_fmt(row[key])} dB" for key, label in figures)
        lines.append(f"{_band(row)}: {detail}")
    return lines


def _cmd_analyze(args) -> int:
    design = _load_design(args.design)
    grid = _analysis_grid(args)
    table = filter_response(design, grid)
    profile = CLAIM_PROFILES[args.claims or "default"]
    report = check_claims(table, profile) if args.claims else None
    doc = {
        "command": "analyze",
        "grid": {
            "start_hz": args.fstart,
            "stop_hz": args.fstop,
            "points": args.points,
            "spacing": "log" if args.log else "linear",
        },
        "response": _RESPONSE_SLOT,
        "band_metrics": _metric_rows(table, profile),
        "claims_profile": args.claims,
        "claims": None if report is None else [_claim_doc(r) for r in report.results],
        "claims_passed": None if report is None else report.passed,
    }

    # The document is written in pieces, the rows in blocks, so only the
    # arrays and one block of text are held at a time.
    if args.format == "touchstone":
        _emit(touchstone_blocks(table, fmt="DB", unit="GHZ"), args.out)
        if args.out:
            _emit(["\n".join(_metric_lines(doc["band_metrics"])) + "\n"], None)
    else:
        columns = (table.f, -insertion_loss_db(table.s21), return_loss_db(table.s11))
        if args.format == "json":
            blocks = _json_blocks(_json_doc(doc), columns)
        else:
            notes = _metric_lines(doc["band_metrics"]) + _claim_lines(doc["claims"] or [])
            blocks = _csv_blocks(columns, notes)
        _emit(blocks, args.out)

    if report is not None and not report.passed:
        return EXIT_CLAIMS_FAILED
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    design = _load_design(args.design)
    if args.steps < 1:
        raise DomainError(f"steps must be >= 1 (got {args.steps!r})")
    if args.steps > MAX_SWEEP_STEPS:
        raise DomainError(f"steps must be <= {MAX_SWEEP_STEPS} (got {args.steps!r})")
    field = _SWEEP_FIELDS[args.param]
    # An infinite or overflowing span gives nan values, which with_aperture
    # refuses like any other non-positive value when it builds the variant.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.sweep_from, args.sweep_to, args.steps).tolist()

    # The in-band loss is n/a (null in JSON) on rows whose corner lies at or
    # below a valid --fref, and where the transmission underflows to an
    # infinite loss; the leakage model rejects every other bad --fref.
    rows = []
    for value in values:
        variant = with_aperture(design, **{field: value})
        corner = corner_frequency(variant)
        loss = None
        if not (math.isfinite(args.fref) and args.fref >= corner):
            loss = inband_transmission(variant, args.fref).insertion_loss_db
        rows.append({"value_m": value, "corner_frequency_hz": corner, "insertion_loss_db": loss})
    rows = _finite(rows)

    if args.format == "json":
        doc = {"command": "sweep", "parameter": args.param, "reference_frequency_hz": args.fref}
        _emit([_json_doc({**doc, "rows": rows})], args.out)
    else:
        lines = [f"# sweep {args.param}, in-band loss at {_fmt(args.fref)} Hz"]
        lines += _csv_lines(("value_m", "corner_frequency_hz", "insertion_loss_db"), rows)
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# --- sections ----------------------------------------------------------------


def _cmd_sections(args) -> int:
    design = _load_design(args.design)
    try:
        freqs = [float(token) for token in args.freqs.split(",") if token.strip()]
    except ValueError:
        raise DomainError(f"unparsable frequency list {args.freqs!r}") from None
    if not freqs:
        raise DomainError("need at least one frequency")
    if args.max_sections * len(freqs) > MAX_SECTIONS:
        raise DomainError(
            f"sections writes at most {MAX_SECTIONS} attenuation figures "
            f"(got {args.max_sections} sections x {len(freqs)} frequencies)"
        )

    columns = [attenuation_vs_sections(design, f, args.max_sections) for f in freqs]
    rows = [
        {"sections": n + 1, "attenuation_db": [column[n][1] for column in columns]}
        for n in range(args.max_sections)
    ]

    if args.format == "json":
        _emit([_json_doc({"command": "sections", "frequencies_hz": freqs, "rows": rows})], args.out)
    else:
        lines = ["sections," + ",".join(f"att_db_{_fmt(f)}hz" for f in freqs)]
        for row in rows:
            lines.append(",".join([str(row["sections"]), *map(_fmt, row["attenuation_db"])]))
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# --- synthesize --------------------------------------------------------------


def _cmd_synthesize(args) -> int:
    spec = loads_design_spec(Path(args.spec).read_text())
    report = synthesize(spec)
    if args.out:
        Path(args.out).write_text(dumps_design(report.design, header="synthesized design"))
    design = DESIGN_FILE.values(report.design)
    margins = {
        "margin_passband_db": report.margin_passband_db,
        "margin_stopband_db": report.margin_stopband_db,
        "total_length_m": report.total_length,
    }

    if args.format == "json":
        _emit([_json_doc({"command": "synthesize", "design": design, **margins})], None)
        return EXIT_OK
    # the design file's required keys: the geometry and the section count
    required = {
        field.key: design[field.key] for field in DESIGN_FILE.fields if field.default is None
    }
    lines = _kv_lines({**required, **margins})
    if args.out:
        lines.append(f"design written to {args.out}")
    _emit(["\n".join(lines) + "\n"], None)
    return EXIT_OK


# --- compare -----------------------------------------------------------------


def _cmd_compare(args) -> int:
    measured = parse_touchstone(Path(args.s2p).read_text())
    design = _load_design(args.design)
    profile = CLAIM_PROFILES[args.claims or "default"]
    report = check_claims(measured, profile)
    model = filter_response(design, measured.grid)
    s11, s12, s21, s22 = measured.s11, measured.s12, measured.s21, measured.s22
    if measured.mag_only:
        # The phases are unknown. Whatever they are, the largest singular
        # value is at least the larger column norm.
        sigma = np.maximum(np.hypot(abs(s11), abs(s21)), np.hypot(abs(s12), abs(s22)))
    else:
        sigma = max_singular_value(s11, s12, s21, s22)
    gain_f = measured.f[sigma > 10.0 ** (GAIN_TOL_DB / 20.0)]

    # Equal losses differ by 0, also where both are infinite (no
    # transmission measured or modelled), which inf - inf would make NaN.
    measured_il, model_il = insertion_loss_db(measured.s21), insertion_loss_db(model.s21)
    deltas = np.zeros(len(measured_il))
    np.subtract(measured_il, model_il, out=deltas, where=measured_il != model_il)
    deltas = np.abs(deltas)
    deviations = []
    for lo, hi in dict.fromkeys(claim.band for claim in profile):
        inside = (measured.f >= lo) & (measured.f <= hi)
        delta = float(deltas[inside].max()) if inside.any() else None
        deviations.append({"band_hz": [lo, hi], "max_abs_il_delta_db": delta})
    # A claim cannot pass on a band that shows gain: a loss figure read
    # there may be a gain.
    claims = [_claim_doc(r) for r in report.results]
    for claim in claims:
        lo, hi = claim["band_hz"]
        inside = gain_f[(gain_f >= lo) & (gain_f <= hi)]
        if inside.size:
            claim["passed"] = False
            claim["error"] = f"gain at {_fmt(inside[0])} Hz"
    doc = {
        "command": "compare",
        "claims_profile": args.claims or "default",
        "claims": claims,
        "deviations": deviations,
        "mag_only": measured.mag_only,
        "gain_points": len(gain_f),
        "first_gain_hz": gain_f[0].item() if len(gain_f) else None,
        "claims_passed": all(claim["passed"] for claim in claims),
    }

    if args.format == "json":
        text = _json_doc(doc)
    else:
        lines = _claim_lines(doc["claims"])
        for row in deviations:
            delta = _fmt(row["max_abs_il_delta_db"])
            lines.append(f"{_band(row)}: max |IL_measured - IL_model| = {delta} dB")
        if measured.mag_only:
            lines.append("note: magnitude-only measurement (phases absent); magnitudes compared")
        if len(gain_f):
            lines.append(
                f"gain: {len(gain_f)} points where S has more than {GAIN_TOL_DB:g} dB "
                f"of gain, the first at {_fmt(gain_f[0])} Hz"
            )
        text = "\n".join(lines) + "\n"
    _emit([text], None)
    return EXIT_OK if doc["claims_passed"] else EXIT_CLAIMS_FAILED


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herd",
        description="Design and verification toolkit for leaky-coax low-pass filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="coax impedance, single-mode limit, aperture mode chart")
    p.add_argument("--design", help="design file")
    p.add_argument("--z0", type=float, help="target impedance [ohm] for the radius solve")
    p.add_argument("--single-mode", dest="single_mode", type=float, help="single-mode limit [Hz]")
    p.add_argument("--coax-eps", dest="coax_eps", type=float, default=None, help="coax fill eps_r")
    p.add_argument("--fmax", type=float, default=None, help="mode chart upper limit [Hz]")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("analyze", help="full-band response, band metrics, claim checking")
    p.add_argument("--design", required=True)
    p.add_argument("--fstart", type=float, default=1e8)
    p.add_argument("--fstop", type=float, default=145e9)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    p.add_argument("--format", choices=["csv", "json", "touchstone"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--claims", choices=sorted(CLAIM_PROFILES), default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="corner frequency and in-band loss vs one aperture dimension")
    p.add_argument("--design", required=True)
    p.add_argument("--param", choices=sorted(_SWEEP_FIELDS), required=True)
    p.add_argument("--from", dest="sweep_from", type=float, required=True, help="start value [m]")
    p.add_argument("--to", dest="sweep_to", type=float, required=True, help="end value [m]")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--fref", type=float, default=10e9, help="in-band reference frequency [Hz]")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sections", help="attenuation vs section count at listed frequencies")
    p.add_argument("--design", required=True)
    p.add_argument("--freqs", required=True, help="comma-separated frequencies [Hz]")
    p.add_argument("--max-sections", dest="max_sections", type=int, default=8)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sections)

    p = sub.add_parser("synthesize", help="design from a performance spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None, help="write the synthesized design file here")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("compare", help="check a measured .s2p against claims and the model")
    p.add_argument("s2p", help="measured Touchstone file")
    p.add_argument("--design", required=True)
    p.add_argument("--claims", choices=sorted(CLAIM_PROFILES), default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"herd: parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # A grid or sweep too large to allocate is refused like any bad input.
    except (DomainError, OSError, MemoryError) as exc:
        print(f"herd: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InfeasibleDesignError as exc:
        print(f"herd: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    raise SystemExit(main())
