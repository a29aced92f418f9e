"""Command-line front end: analysis, synthesis, sweeps, compliance checking.

Exit codes: 0 success, 1 compliance failure, 2 input/parse error,
3 infeasible synthesis, 141 stdout closed by its reader. Output formatting
uses fixed significant digits so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cascade import (
    cascade_loss_db,
    max_singular_value,
    model_label,
    section_attenuation_db,
    transmission_phase,
)
from .errors import DomainError, InfeasibleDesignError, ParseError
from .leakage import aperture_sweep
from .model import (
    AIR,
    DESIGN_FILE,
    MAX_GRID_POINTS,
    FilterDesign,
    FrequencyGrid,
    Material,
    build_part,
    dumps_design,
    loads_design,
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
    band_figures,
    band_points,
    check_claims,
    insertion_loss_db,
    judge_claims,
    metrics_by_band,
    model_touchstone_blocks,
    parse_touchstone,
    row_blocks,
)

EXIT_OK = 0
EXIT_CLAIMS_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
# A reader that stops early (`herd ... | head`) closes stdout. 128 + SIGPIPE
# is the status a shell shows for a program that a closed pipe ends.
EXIT_CLOSED_PIPE = 141

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

# `compare` takes a measured point for gain when the largest singular value of
# its S matrix exceeds 1 by more than this many dB. A passband measurement
# carries noise of a few thousandths of a dB, which must not read as gain.
GAIN_TOL_DB = 0.05


def _fmt(x) -> str:
    """An int as ``%d``, any other number to 12 significant digits; ``n/a``
    for a value the model does not give or that is not finite, as the
    ``"text"`` style of ``tsio.row_blocks`` writes it."""
    if type(x) is int:
        return str(x)
    return "n/a" if x is None or not math.isfinite(x) else format(float(x), ".12g")


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


# A table is a list of (key, column, style) entries: row i holds value i of
# each column, written in the entry's tsio.row_blocks style ("%d" for
# integers). Its rows are laid out and written a block at a time, so only the
# arrays and one block of text are held.

# The string that stands in for the rows, and for each value of a row, until
# they are laid out.
_SLOT = "\0"


def _json_blocks(doc: dict, key: str, entries):
    """The JSON document ``doc`` in pieces, with the value of its ``key`` the
    list of row objects built from ``entries``, as json.dumps(indent=2)
    writes it: a "%d" column as integers, any other as floats, null where
    not finite. An entry whose column is a list of columns gives each row a
    list. A row's fixed texts come from dumping one row of slots."""
    columns, styles, row = [], [], {}
    for name, values, style in entries:
        nested = isinstance(values, list)
        group = values if nested else [values]
        columns += group
        styles += ["%d" if style == "%d" else "json"] * len(group)
        row[name] = [_SLOT] * len(group) if nested else _SLOT
    head, _, tail = _json_doc({**doc, key: _SLOT}).partition(json.dumps(_SLOT))
    # a row as an item of a list that is the value of a key of the document
    text = "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
    first, *texts = text.split(json.dumps(_SLOT))
    # Each row opens with the comma after the row before it; the first
    # opens the list instead.
    blocks = row_blocks(columns, styles, [",\n" + first, *texts])
    opening = next(blocks, None)
    yield head
    if opening is None:
        yield "[]" + tail
        return
    yield "[" + opening[1:]
    yield from blocks
    yield "\n  ]" + tail


def _csv_blocks(entries, head=(), notes=()):
    """The CSV document in pieces: each of ``head`` as a ``# `` line, the
    header of the entries' keys, their rows in blocks, then each of
    ``notes`` as a ``# `` line."""
    keys, columns, styles = zip(*entries)
    yield "".join(f"# {line}\n" for line in head) + ",".join(keys) + "\n"
    yield from row_blocks(columns, styles, ["", *[","] * (len(keys) - 1), "\n"])
    yield "".join(f"# {line}\n" for line in notes)


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
        mode, unread = "--design", {"--z0": args.z0, "--single-mode": args.single_mode,
                                    "--coax-eps": args.coax_eps}
    elif args.z0 is not None and args.single_mode is not None:
        mode, unread = "--z0 and --single-mode", {"--fmax": args.fmax}
    else:
        raise DomainError("modes needs --design, or both --z0 and --single-mode")
    # An option the mode does not read is refused, not dropped.
    for option, value in unread.items():
        if value is not None:
            raise DomainError(f"modes with {mode} does not read {option}")
    if args.design:
        design = _load_design(args.design)
        geometry = design.coax
        fill = design.coax_fill
        z0 = coax_char_impedance(geometry, fill)
        corner = corner_frequency(design)
        fmax = args.fmax if args.fmax is not None else 2.0 * corner
        chart = mode_chart(design.aperture, design.aperture_fill, fmax)
    else:
        fill = AIR
        if args.coax_eps is not None:
            fill = build_part("coax_fill", Material, {"eps_r": args.coax_eps})
        geometry = solve_inner_radius(args.z0, args.single_mode, fill)
        z0 = args.z0
    scalars = {
        "z0_ohm": z0,
        "r_inner_m": geometry.r_inner,
        "r_outer_m": geometry.r_outer,
        "single_mode_limit_hz": coax_first_higher_mode_cutoff(geometry, fill),
        "corner_frequency_hz": corner,
    }
    lines = _kv_lines({key: value for key, value in scalars.items() if value is not None})
    doc = {"command": "modes", **scalars, "mode_chart": None}

    if args.format == "text":
        if chart is not None:
            lines.append("mode chart (m, n, cutoff_hz):")
            lines += [f"  TE{e.m}{e.n}  {_fmt(e.cutoff_hz)}" for e in chart]
        blocks = ["\n".join(lines) + "\n"]
    elif chart is None:
        # No chart: JSON's is null, and CSV writes its scalars as the
        # comment lines that head a chart.
        blocks = [_json_doc(doc) if args.format == "json" else "".join(f"# {line}\n" for line in lines)]
    else:
        # (3, rows), also for an empty chart
        m, n, cutoff = np.array([(e.m, e.n, e.cutoff_hz) for e in chart]).reshape(-1, 3).T
        entries = [("m", m, "%d"), ("n", n, "%d"), ("cutoff_hz", cutoff, "text")]
        if args.format == "json":
            blocks = _json_blocks(doc, "mode_chart", entries)
        else:
            blocks = _csv_blocks(entries, lines)
    _emit(blocks, args.out)
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _analysis_grid(args) -> FrequencyGrid:
    spacing = FrequencyGrid.logarithmic if args.log else FrequencyGrid.linear
    return spacing(args.fstart, args.fstop, args.points)


# Each band metric figure, by its key in JSON and its label in text.
_METRIC_LABELS = {
    "max_insertion_loss_db": "max_il",
    "min_attenuation_db": "min_att",
    "max_ripple_db": "ripple",
    "worst_return_loss_db": "worst_rl",
}


def _metric_rows(metrics: dict) -> list[dict]:
    """The figures of each band of ``metrics`` (from tsio.metrics_by_band),
    or the error the band gives."""
    rows = []
    for band, metric in metrics.items():
        if isinstance(metric, DomainError):
            rows.append({"band_hz": list(band), "error": str(metric)})
            continue
        figures = {key: getattr(metric, key) for key in _METRIC_LABELS}
        rows.append({"band_hz": list(band), **figures})
    return rows


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
    # The model's matched, reciprocal cascade needs no complex table: every
    # format and the band metrics read this one loss array.
    loss = cascade_loss_db(design, grid)
    profile = CLAIM_PROFILES[args.claims or "default"]

    def band_metric(band):
        # a matched model reflects nothing: its return loss is -inf
        return band_figures(band, loss[band_points(grid.f, band)], -math.inf)

    # the metric rows and the claims read one evaluation of each band
    metrics = metrics_by_band(band_metric, [claim.band for claim in profile])
    report = judge_claims(profile, metrics) if args.claims else None
    doc = {
        "command": "analyze",
        "grid": {
            "start_hz": args.fstart,
            "stop_hz": args.fstop,
            "points": args.points,
            "spacing": "log" if args.log else "linear",
        },
        "response": None,
        "band_metrics": _metric_rows(metrics),
        "claims_profile": args.claims,
        "claims": None if report is None else [_claim_doc(r) for r in report.results],
        "claims_passed": None if report is None else report.passed,
    }

    # the band metrics and claim verdicts that CSV and Touchstone's --out
    # write as text lines
    notes = _metric_lines(doc["band_metrics"]) + _claim_lines(doc["claims"] or [])
    if args.format == "touchstone":
        phase = transmission_phase(design, grid.f)
        _emit(model_touchstone_blocks(grid.f, loss, phase, model_label(design), unit="GHZ"), args.out)
        if args.out:
            _emit(["\n".join(notes) + "\n"], None)
    else:
        # CSV keeps the -inf s11_db of a matched filter; 0 - loss is +0,
        # not -0, where the cascade is lossless
        columns = (grid.f, 0.0 - loss, np.broadcast_to(-math.inf, len(grid)))
        entries = list(zip(("frequency_hz", "s21_db", "s11_db"), columns, ["%.12g"] * 3))
        if args.format == "json":
            blocks = _json_blocks(doc, "response", entries)
        else:
            blocks = _csv_blocks(entries, notes=notes)
        _emit(blocks, args.out)

    if report is not None and not report.passed:
        return EXIT_CLAIMS_FAILED
    return EXIT_OK


# --- sweep -------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    design = _load_design(args.design)
    if args.steps < 1:
        raise DomainError(f"steps must be >= 1 (got {args.steps!r})")
    if args.steps > MAX_GRID_POINTS:
        raise DomainError(f"steps must be <= {MAX_GRID_POINTS} (got {args.steps!r})")
    # An infinite or overflowing span gives nan values, which aperture_sweep
    # refuses with with_aperture's message, like any other non-positive value.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(args.sweep_from, args.sweep_to, args.steps)
    # The in-band loss is n/a (null in JSON) on rows whose corner lies at or
    # below --fref, and where the aperture mode's decay constant is 0, the
    # only place the loss is infinite.
    corner, loss = aperture_sweep(design, _SWEEP_FIELDS[args.param], values, args.fref)

    keys = ("value_m", "corner_frequency_hz", "insertion_loss_db")
    entries = list(zip(keys, (values, corner, loss), ["text"] * 3))
    if args.format == "json":
        doc = {"command": "sweep", "parameter": args.param, "reference_frequency_hz": args.fref}
        _emit(_json_blocks({**doc, "rows": None}, "rows", entries), args.out)
    else:
        head = [f"sweep {args.param}, in-band loss at {_fmt(args.fref)} Hz"]
        _emit(_csv_blocks(entries, head), args.out)
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
    if args.max_sections * len(freqs) > MAX_GRID_POINTS:
        raise DomainError(
            f"sections writes at most {MAX_GRID_POINTS} attenuation figures "
            f"(got {args.max_sections} sections x {len(freqs)} frequencies)"
        )
    if args.max_sections < 1:
        raise DomainError(f"max_sections must be >= 1 (got {args.max_sections!r})")

    # Matched sections: n of them attenuate n times as much as one, which
    # is cascade.attenuation_vs_sections' count * att, bit for bit.
    counts = np.arange(1, args.max_sections + 1)
    columns = [counts * att for att in section_attenuation_db(design, np.array(freqs)).tolist()]
    # A CSV column is named by its frequency to 12 digits, so two frequencies
    # that agree to 12 digits would share a name. Either format refuses them.
    names = [f"att_db_{_fmt(f)}hz" for f in freqs]
    first = {}
    for f, name in zip(freqs, names):
        if name in first:
            raise DomainError(f"frequencies {first[name]!r} and {f!r} repeat the column {name}")
        first[name] = f

    if args.format == "json":
        doc = {"command": "sections", "frequencies_hz": freqs, "rows": None}
        blocks = _json_blocks(doc, "rows", [("sections", counts, "%d"), ("attenuation_db", columns, "text")])
    else:
        blocks = _csv_blocks([("sections", counts, "%d"), *zip(names, columns, ["text"] * len(freqs))])
    _emit(blocks, args.out)
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
    model_il = cascade_loss_db(design, measured.grid)
    s11, s12, s21, s22 = measured.s11, measured.s12, measured.s21, measured.s22
    if measured.mag_only:
        # The phases are unknown. Whatever they are, the largest singular
        # value is at least the larger column norm.
        sigma = np.maximum(np.hypot(abs(s11), abs(s21)), np.hypot(abs(s12), abs(s22)))
    else:
        sigma = max_singular_value(s11, s12, s21, s22)
    gain_f = measured.f[sigma > 10.0 ** (GAIN_TOL_DB / 20.0)]

    deltas = np.abs(insertion_loss_db(measured.s21) - model_il)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and reused by every
    later one: a parse leaves no state on it and returns a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    # Not a fault of the input, and a reader that has gone needs no message.
    except BrokenPipeError:
        return EXIT_CLOSED_PIPE
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
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED_PIPE
    if code == EXIT_CLOSED_PIPE:
        # stdout still holds text the pipe refused, which the interpreter's
        # own flush at exit would try again and report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
