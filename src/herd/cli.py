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

from .cascade import attenuation_vs_sections, filter_response
from .errors import DomainError, InfeasibleDesignError, ParseError
from .leakage import inband_transmission
from .model import FilterDesign, FrequencyGrid, dumps_design, loads_design, with_aperture
from .modes import (
    coax_char_impedance,
    coax_first_higher_mode_cutoff,
    corner_frequency,
    mode_chart,
    solve_inner_radius,
)
from .model import AIR, DESIGN_FILE, Material
from .synthesis import loads_design_spec, synthesize
from .tsio import (
    Claim,
    ClaimKind,
    band_metrics,
    check_claims,
    format_columns,
    insertion_loss_db,
    parse_touchstone,
    return_loss_db,
    write_touchstone,
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


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_design(path: str) -> FilterDesign:
    return loads_design(Path(path).read_text())


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _claim_doc(result) -> dict:
    return {
        "description": result.description,
        "band_hz": list(result.band),
        "kind": result.kind.value,
        "threshold_db": result.threshold_db,
        "observed_db": _json_safe(result.observed_db),
        "passed": result.passed,
        "error": result.error,
    }


def _claim_lines(report) -> list[str]:
    lines = []
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        if result.error is not None:
            lines.append(f"{status}  {result.description}: error: {result.error}")
        else:
            lines.append(
                f"{status}  {result.description}: observed {_fmt(result.observed_db)} dB "
                f"(threshold {_fmt(result.threshold_db)} dB)"
            )
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
    elif args.z0 is not None and args.single_mode is not None:
        fill = Material(eps_r=args.coax_eps) if args.coax_eps else AIR
        geometry = solve_inner_radius(args.z0, args.single_mode, fill)
        z0 = args.z0
    else:
        raise DomainError("modes needs --design, or both --z0 and --single-mode")
    single_mode = coax_first_higher_mode_cutoff(geometry, fill)

    if args.format == "json":
        doc = {
            "command": "modes",
            "z0_ohm": z0,
            "r_inner_m": geometry.r_inner,
            "r_outer_m": geometry.r_outer,
            "single_mode_limit_hz": single_mode,
            "corner_frequency_hz": corner,
            "mode_chart": None
            if chart is None
            else [{"m": e.index.m, "n": e.index.n, "cutoff_hz": e.cutoff_hz} for e in chart],
        }
        _emit(_json_doc(doc), args.out)
        return EXIT_OK

    lines = [
        f"z0_ohm = {_fmt(z0)}",
        f"r_inner_m = {_fmt(geometry.r_inner)}",
        f"r_outer_m = {_fmt(geometry.r_outer)}",
        f"single_mode_limit_hz = {_fmt(single_mode)}",
    ]
    if corner is not None:
        lines.append(f"corner_frequency_hz = {_fmt(corner)}")
    if chart is not None:
        if args.format == "csv":
            lines = [f"# {line}" for line in lines]
            lines.append("m,n,cutoff_hz")
            lines += [f"{e.index.m},{e.index.n},{_fmt(e.cutoff_hz)}" for e in chart]
        else:
            lines.append("mode chart (m, n, cutoff_hz):")
            lines += [f"  TE{e.index.m}{e.index.n}  {_fmt(e.cutoff_hz)}" for e in chart]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _analysis_grid(args) -> FrequencyGrid:
    spacing = FrequencyGrid.logarithmic if args.log else FrequencyGrid.linear
    return spacing(args.fstart, args.fstop, args.points)


# One element of the "response" array as json.dumps(..., indent=2) lays it out
# at that depth, and the string that stands in for the array until it is
# spliced in. Only "command" and "grid" precede "response", so the first
# occurrence of the slot is the response's.
_RESPONSE_ROW = '    {\n      "frequency_hz": %s,\n      "s21_db": %s,\n      "s11_db": %s\n    }'
_RESPONSE_SLOT = "\0response"


def _splice_response(text: str, columns) -> str:
    """``text`` with its response slot replaced by the list of objects built
    from ``columns`` (frequency, s21 and s11 arrays), as json.dumps would
    write it, but with each distinct column formatted once."""
    head, _, tail = text.partition(json.dumps(_RESPONSE_SLOT))
    rows = map(_RESPONSE_ROW.__mod__, zip(*format_columns(columns, "json")))
    return "".join((head, "[\n", ",\n".join(rows), "\n  ]", tail))


def _metric_rows(table, profile: list[Claim]) -> list[dict]:
    rows = []
    seen = set()
    for claim in profile:
        if claim.band in seen:
            continue
        seen.add(claim.band)
        try:
            metric = band_metrics(table, claim.band)
        except DomainError as exc:
            rows.append({"band_hz": list(claim.band), "error": str(exc)})
            continue
        rows.append(
            {
                "band_hz": list(claim.band),
                "max_insertion_loss_db": _json_safe(metric.max_insertion_loss_db),
                "min_attenuation_db": _json_safe(metric.min_attenuation_db),
                "max_ripple_db": _json_safe(metric.max_ripple_db),
                "worst_return_loss_db": _json_safe(metric.worst_return_loss_db),
            }
        )
    return rows


def _metric_text(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        lo, hi = row["band_hz"]
        if "error" in row:
            lines.append(f"band [{_fmt(lo)}, {_fmt(hi)}] Hz: {row['error']}")
            continue
        lines.append(
            f"band [{_fmt(lo)}, {_fmt(hi)}] Hz: "
            f"max_il={_fmt2(row['max_insertion_loss_db'])} dB "
            f"min_att={_fmt2(row['min_attenuation_db'])} dB "
            f"ripple={_fmt2(row['max_ripple_db'])} dB "
            f"worst_rl={_fmt2(row['worst_return_loss_db'])} dB"
        )
    return lines


def _fmt2(x) -> str:
    return "n/a" if x is None else _fmt(x)


def _cmd_analyze(args) -> int:
    design = _load_design(args.design)
    grid = _analysis_grid(args)
    table = filter_response(design, grid)
    profile = CLAIM_PROFILES[args.claims] if args.claims else CLAIM_PROFILES["default"]
    metrics = _metric_rows(table, profile)
    report = check_claims(table, profile) if args.claims else None
    s21_db = -insertion_loss_db(table.s21)
    s11_db = return_loss_db(table.s11)

    if args.format == "touchstone":
        _emit(write_touchstone(table, fmt="DB", unit="GHZ"), args.out)
        if args.out:
            for line in _metric_text(metrics):
                print(line)
    elif args.format == "json":
        doc = {
            "command": "analyze",
            "grid": {
                "start_hz": args.fstart,
                "stop_hz": args.fstop,
                "points": args.points,
                "spacing": "log" if args.log else "linear",
            },
            "response": _RESPONSE_SLOT,
            "band_metrics": metrics,
            "claims_profile": args.claims,
            "claims": None if report is None else [_claim_doc(r) for r in report.results],
            "claims_passed": None if report is None else report.passed,
        }
        _emit(_splice_response(_json_doc(doc), (table.f, s21_db, s11_db)), args.out)
    else:
        # "%.12g" formats a float exactly as _fmt does.
        lines = ["frequency_hz,s21_db,s11_db"]
        columns = format_columns((table.f, s21_db, s11_db), "%.12g")
        lines.extend(map(",".join, zip(*columns)))
        for row in _metric_text(metrics):
            lines.append(f"# {row}")
        if report is not None:
            for row in _claim_lines(report):
                lines.append(f"# {row}")
        _emit("\n".join(lines) + "\n", args.out)

    if report is not None and not report.passed:
        return EXIT_CLAIMS_FAILED
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    design = _load_design(args.design)
    if args.steps < 1:
        raise DomainError(f"steps must be >= 1 (got {args.steps!r})")
    field = _SWEEP_FIELDS[args.param]
    # An infinite or overflowing span gives nan values, which the aperture
    # check in corner_frequency refuses like any other non-positive value.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.sweep_from, args.sweep_to, args.steps).tolist()

    # The in-band loss is n/a (null in JSON) on rows whose corner lies at or
    # below a valid --fref, and where the transmission underflows to an
    # infinite loss; the leakage model rejects every other bad --fref.
    rows = []
    for value in values:
        variant = with_aperture(design, **{field: value})
        corner = corner_frequency(variant)
        if math.isfinite(args.fref) and args.fref >= corner:
            loss = None
        else:
            loss = _json_safe(inband_transmission(variant, args.fref).insertion_loss_db)
        rows.append({"value_m": value, "corner_frequency_hz": corner, "insertion_loss_db": loss})

    if args.format == "json":
        doc = {
            "command": "sweep",
            "parameter": args.param,
            "reference_frequency_hz": args.fref,
            "rows": rows,
        }
        _emit(_json_doc(doc), args.out)
    else:
        lines = [f"# sweep {args.param}, in-band loss at {_fmt(args.fref)} Hz"]
        lines.append("value_m,corner_frequency_hz,insertion_loss_db")
        for row in rows:
            lines.append(
                f"{_fmt(row['value_m'])},{_fmt(row['corner_frequency_hz'])},"
                f"{_fmt2(row['insertion_loss_db'])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
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

    columns = [attenuation_vs_sections(design, f, args.max_sections) for f in freqs]
    rows = [
        {"sections": n + 1, "attenuation_db": [columns[j][n][1] for j in range(len(freqs))]}
        for n in range(args.max_sections)
    ]

    if args.format == "json":
        doc = {"command": "sections", "frequencies_hz": freqs, "rows": rows}
        _emit(_json_doc(doc), args.out)
    else:
        header = "sections," + ",".join(f"att_db_{_fmt(f)}hz" for f in freqs)
        lines = [header]
        for row in rows:
            lines.append(f"{row['sections']}," + ",".join(_fmt(a) for a in row["attenuation_db"]))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- synthesize --------------------------------------------------------------


def _cmd_synthesize(args) -> int:
    spec = loads_design_spec(Path(args.spec).read_text())
    report = synthesize(spec)
    if args.out:
        Path(args.out).write_text(dumps_design(report.design, header="synthesized design"))

    if args.format == "json":
        doc = {
            "command": "synthesize",
            "design": DESIGN_FILE.values(report.design),
            "margin_passband_db": report.margin_passband_db,
            "margin_stopband_db": report.margin_stopband_db,
            "total_length_m": report.total_length,
        }
        sys.stdout.write(_json_doc(doc))
    else:
        # the design file's required keys: the geometry and the section count
        values = DESIGN_FILE.values(report.design)
        for field in DESIGN_FILE.fields:
            if field.default is None:
                print(f"{field.key} = {_fmt(values[field.key])}")
        print(f"margin_passband_db = {_fmt(report.margin_passband_db)}")
        print(f"margin_stopband_db = {_fmt(report.margin_stopband_db)}")
        print(f"total_length_m = {_fmt(report.total_length)}")
        if args.out:
            print(f"design written to {args.out}")
    return EXIT_OK


# --- compare -----------------------------------------------------------------


def _cmd_compare(args) -> int:
    measured = parse_touchstone(Path(args.s2p).read_text())
    design = _load_design(args.design)
    profile = CLAIM_PROFILES[args.claims or "default"]
    report = check_claims(measured, profile)
    model = filter_response(design, measured.grid)

    deltas = np.abs(insertion_loss_db(measured.s21) - insertion_loss_db(model.s21))
    deviations = []
    seen = set()
    for claim in profile:
        if claim.band in seen:
            continue
        seen.add(claim.band)
        lo, hi = claim.band
        inside = (measured.f >= lo) & (measured.f <= hi)
        deviations.append(
            {
                "band_hz": [lo, hi],
                "max_abs_il_delta_db": float(deltas[inside].max()) if inside.any() else None,
            }
        )

    if args.format == "json":
        doc = {
            "command": "compare",
            "claims_profile": args.claims or "default",
            "claims": [_claim_doc(r) for r in report.results],
            "deviations": [
                {**row, "max_abs_il_delta_db": _json_safe(row["max_abs_il_delta_db"])}
                for row in deviations
            ],
            "mag_only": measured.mag_only,
            "claims_passed": report.passed,
        }
        sys.stdout.write(_json_doc(doc))
    else:
        for line in _claim_lines(report):
            print(line)
        for row in deviations:
            lo, hi = row["band_hz"]
            print(
                f"band [{_fmt(lo)}, {_fmt(hi)}] Hz: "
                f"max |IL_measured - IL_model| = {_fmt2(row['max_abs_il_delta_db'])} dB"
            )
        if measured.mag_only:
            print("note: magnitude-only measurement (phases absent); magnitudes compared")
    return EXIT_CLAIMS_FAILED if not report.passed else EXIT_OK


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
    except (DomainError, OSError) as exc:
        print(f"herd: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InfeasibleDesignError as exc:
        print(f"herd: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    raise SystemExit(main())
