"""Touchstone (.s2p) reading/writing, band metrics and compliance checking.

Touchstone v1 two-port only. The option line must read
``# <unit> S <format> R <z>`` with unit in {HZ, KHZ, MHZ, GHZ} and format in
{RI, MA, DB}; data rows carry 9 numbers in S11 S21 S12 S22 order. A
nonstandard ``!MAGONLY`` comment directive marks magnitude-only measurements:
phases are zeroed and the table is flagged, which leaves every magnitude
metric valid.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import Provenance, SParamTable
from .errors import DomainError, ParseError
from .model import FrequencyGrid

FREQUENCY_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")

# Zero magnitude cannot be written in DB format; clamp at -400 dB (1e-20),
# indistinguishable from zero at any metric tolerance used here.
_DB_FLOOR = -400.0

# Parsed rows are moved from Python floats into an array this many at a time,
# so a long file never holds one float object per value.
_BLOCK_ROWS = 1024

# Written rows are formatted this many at a time (``row_blocks``), so the
# text of a long table is never held whole, only its arrays.
WRITE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BandMetric:
    """Scalar figures of a table inside one closed frequency band."""

    band: tuple[float, float]
    max_insertion_loss_db: float
    min_attenuation_db: float
    max_ripple_db: float
    worst_return_loss_db: float


class ClaimKind(enum.Enum):
    MAX_IL = "MAX_IL"
    MIN_ATT = "MIN_ATT"
    MAX_RIPPLE = "MAX_RIPPLE"


@dataclass(frozen=True)
class Claim:
    band: tuple[float, float]
    kind: ClaimKind
    threshold_db: float
    description: str = ""

    def describe(self) -> str:
        if self.description:
            return self.description
        lo, hi = self.band
        return f"{self.kind.value} {self.threshold_db:g} dB over [{lo:g}, {hi:g}] Hz"


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    observed_db: float | None
    passed: bool
    error: str | None = None


@dataclass(frozen=True)
class ComplianceReport:
    results: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


def _pairs_to_complex(fmt: str, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    if fmt == "RI":
        out = np.empty(first.shape, dtype=complex)
        out.real = first
        out.imag = second
        return out
    mag = first if fmt == "MA" else 10.0 ** (first / 20.0)
    return mag * np.exp(1j * np.radians(second))


def _content(raw: str) -> tuple[str, bool]:
    """A line's text before its ``!`` comment, stripped, and whether that
    comment is the ``!MAGONLY`` directive."""
    bang = raw.find("!")
    if bang < 0:
        return raw.strip(), False
    return raw[:bang].strip(), raw[bang + 1 :].strip().upper() == "MAGONLY"


def _option_line(lines: list[str]) -> tuple[int, float, str, float, bool]:
    """Walk the lines up to the option line: its line number, the unit
    scale, format and reference impedance it sets, and whether a
    ``!MAGONLY`` directive came before it."""
    mag_only = False
    for lineno, raw in enumerate(lines, start=1):
        line, directive = _content(raw)
        mag_only |= directive
        if not line:
            continue
        if line.startswith("["):
            raise ParseError("Touchstone v2 blocks are not supported", line=lineno)
        if not line.startswith("#"):
            raise ParseError("data row before the option line", line=lineno)
        tokens = line[1:].split()
        if (
            len(tokens) != 5
            or tokens[0].upper() not in FREQUENCY_UNITS
            or tokens[1].upper() != "S"
            or tokens[2].upper() not in FORMATS
            or tokens[3].upper() != "R"
        ):
            raise ParseError(
                f"malformed option line {raw.strip()!r}; expected "
                "'# <HZ|KHZ|MHZ|GHZ> S <RI|MA|DB> R <impedance>'",
                line=lineno,
            )
        try:
            z0 = float(tokens[4])
        except ValueError:
            raise ParseError(f"bad reference impedance {tokens[4]!r}", line=lineno) from None
        if not (math.isfinite(z0) and z0 > 0.0):
            raise ParseError(
                f"reference impedance must be finite and > 0 ohm (got {tokens[4]!r})",
                line=lineno,
            )
        return lineno, FREQUENCY_UNITS[tokens[0].upper()], tokens[2].upper(), z0, mag_only
    raise ParseError("missing option line", line=len(lines))


def _walk_rows(
    lines: list[str], start: int, stop: int | None = None
) -> tuple[np.ndarray, list[int], bool]:
    """Read the lines after the option line (``lines[start:]``) one at a
    time: the data rows as an (n, 9) array, the line number of each row, and
    whether a ``!MAGONLY`` directive appears. Raises the first structural
    fault (a second option line, a v2 block, a wrong column count, a token
    ``float`` refuses, no rows at all) as it is met. With ``stop``, the
    walk ends once it has read that many rows.

    This is the reference reading of the data rows and the only place that
    knows their line numbers; ``parse_touchstone`` reads rows with numpy's
    text reader and comes here only where numpy refuses them or a faulty
    line must be named.
    """
    mag_only = False
    blocks: list[np.ndarray] = []
    rows: list[list[float]] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line, directive = _content(raw)
        mag_only |= directive
        if not line:
            continue
        if line.startswith("["):
            raise ParseError("Touchstone v2 blocks are not supported", line=lineno)
        if line.startswith("#"):
            raise ParseError("more than one option line", line=lineno)
        tokens = line.split()
        if len(tokens) != 9:
            raise ParseError(f"expected 9 columns, got {len(tokens)}", line=lineno)
        try:
            rows.append(list(map(float, tokens)))
        except ValueError:
            raise ParseError(f"non-numeric data in row {raw.strip()!r}", line=lineno) from None
        row_lines.append(lineno)
        if len(row_lines) == stop:
            break
        if len(rows) == _BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows.clear()
    if not row_lines:
        raise ParseError("no data rows", line=len(lines))
    blocks.append(np.array(rows, dtype=float).reshape(-1, 9))
    return np.concatenate(blocks), row_lines, mag_only


def _load_rows(lines: list[str]) -> np.ndarray | None:
    """The data rows read by numpy's text reader, or None where it refuses
    them or finds no rows or other than 9 columns.

    Its float parsing is CPython's, without the underscores and non-ASCII
    digits that ``float`` also takes, and it splits on a subset of the
    whitespace ``str.split`` splits on, so every row it reads is the row
    ``_walk_rows`` reads; the lines never hold a line break.
    """
    try:
        # numpy warns about input without data rows; _walk_rows reports it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(lines, comments="!", ndmin=2, dtype=float)
    except ValueError:
        return None
    return data if data.shape[1] == 9 and len(data) else None


def parse_touchstone(text: str) -> SParamTable:
    """Parse Touchstone v1 two-port text into a MEASURED table.

    Lines are those of ``str.splitlines``. Structural faults (option line,
    column count, non-numeric tokens) are reported as they are met. Value
    faults (non-finite numbers, frequencies that are not positive or not
    strictly increasing, S-parameters that overflow on conversion) are
    checked on the whole block once every row is read; the first offending
    row is reported.
    """
    lines = text.splitlines()
    start, unit_scale, fmt, z0, mag_only = _option_line(lines)
    tail = lines[start:]
    data = _load_rows(tail)
    row_lines = None
    if data is None:
        data, row_lines, directive = _walk_rows(lines, start)
    else:
        directive = any(_content(line)[1] for line in tail if "!" in line)
    mag_only |= directive

    # A frequency may overflow its unit, and a DB magnitude above about
    # 6000 dB overflows 10**(dB/20); both are value faults reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        f_hz = data[:, 0] * unit_scale
        s11, s21, s12, s22 = (
            _pairs_to_complex(fmt, data[:, col], data[:, col + 1]) for col in (1, 3, 5, 7)
        )
    finite = np.isfinite(data).all(axis=1) & np.isfinite(f_hz)
    converted = np.isfinite(s11) & np.isfinite(s21) & np.isfinite(s12) & np.isfinite(s22)
    bad = ~(finite & converted & (f_hz > 0.0))
    bad[1:] |= ~(f_hz[1:] > f_hz[:-1])
    if bad.any():
        i = int(bad.argmax())
        f = f_hz[i].item()
        if not finite[i]:
            message = f"non-finite value in row {data[i].tolist()!r}"
        elif not converted[i]:
            message = f"S-parameter overflows in row {data[i].tolist()!r}"
        elif not f > 0.0:
            message = f"frequency must be > 0 Hz (got {f!r} Hz)"
        else:
            before = f_hz[i - 1].item()
            message = f"frequencies must be strictly increasing ({before!r} Hz -> {f!r} Hz)"
        if row_lines is None:
            row_lines = _walk_rows(lines, start, stop=i + 1)[1]
        raise ParseError(message, line=row_lines[i])

    if mag_only:
        s11, s21, s12, s22 = (np.abs(s).astype(complex) for s in (s11, s21, s12, s22))
    return SParamTable(
        grid=FrequencyGrid(f_hz),
        provenance=Provenance.MEASURED,
        mag_only=mag_only,
        s11=s11,
        s21=s21,
        s12=s12,
        s22=s22,
        z0=z0,
    )


def _complex_to_pairs(fmt: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if fmt == "RI":
        return values.real, values.imag
    mag = np.abs(values)
    ang = np.degrees(np.angle(values))
    if fmt == "MA":
        return mag, ang
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(mag), _DB_FLOOR), ang


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float or complex arrays hold the same bits (so ``-0.0``
    and ``0.0`` differ and a NaN equals itself)."""
    bits = (np.ascontiguousarray(x).view(np.int64) for x in (a, b))
    return np.array_equal(*bits)


# The styles that write a word for a value that is not finite: each one's
# formatter of a finite float, and the word.
_NON_FINITE = {"json": (float.__repr__, "null"), "text": ("%.12g".__mod__, "n/a")}


def _format_column(values: np.ndarray, style: str) -> list[str]:
    if style in _NON_FINITE:
        form, word = _NON_FINITE[style]
        strings = list(map(form, values.tolist()))
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            strings[i] = word
        return strings
    return list(map(style.__mod__, values.tolist()))


def format_columns(columns, styles) -> list[list[str]]:
    """The strings of each float64 column, one per value, in the style given
    for that column.

    A style is a printf format such as ``"%.17g"``, ``"%.12g"`` or ``"%d"``
    (for a column of integers); ``"json"``: the float's repr, as
    ``json.dumps`` writes it, and ``null`` for a non-finite value; or
    ``"text"``: ``"%.12g"``, and ``n/a`` for a non-finite value. Values are
    told apart by their bits, so ``-0.0`` and ``0.0`` stay distinct and a
    NaN equals itself. A column whose style and bits equal those of an
    earlier column reuses its strings. Otherwise each distinct value of a
    column is formatted once, and a value that repeats (a flat stopband, a
    constant column) reuses its string; a strictly increasing column (a
    frequency grid, a count) holds no repeat, so it is formatted whole
    without being sorted.
    """
    done: list[tuple[str, np.ndarray, list[str]]] = []
    out = []
    for column, style in zip(columns, styles):
        values = np.ascontiguousarray(column, dtype=np.float64)
        bits = values.view(np.int64)
        for seen_style, seen, strings in done:
            if seen_style == style and np.array_equal(seen, bits):
                break
        else:
            if (values[1:] > values[:-1]).all():
                strings = _format_column(values, style)
            else:
                distinct, inverse = np.unique(bits, return_inverse=True)
                if len(distinct) == len(bits):
                    strings = _format_column(values, style)
                else:
                    once = _format_column(distinct.view(np.float64), style)
                    strings = np.array(once, dtype=object)[inverse].tolist()
            done.append((style, bits, strings))
        out.append(strings)
    return out


def row_blocks(columns, styles):
    """The equal-length float64 ``columns`` in blocks of ``WRITE_BLOCK_ROWS``
    rows: per block, the ``format_columns`` strings of its slice of each
    column in that column's style, which the writer lays out as rows."""
    for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
        block = [column[start : start + WRITE_BLOCK_ROWS] for column in columns]
        yield format_columns(block, styles)


def touchstone_blocks(table: SParamTable, fmt: str = "RI", unit: str = "HZ"):
    """The Touchstone v1 text of a table, 17 significant digits, as
    consecutive pieces: the header lines, then the data rows in blocks."""
    fmt = fmt.upper()
    unit = unit.upper()
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS} (got {fmt!r})")
    if unit not in FREQUENCY_UNITS:
        raise DomainError(f"unit must be one of {tuple(FREQUENCY_UNITS)} (got {unit!r})")

    # A model table's s12 equals its s21 and its s22 its s11, bit for bit:
    # each distinct array is converted once.
    s11 = _complex_to_pairs(fmt, table.s11)
    s21 = _complex_to_pairs(fmt, table.s21)
    s12 = s21 if _same_bits(table.s12, table.s21) else _complex_to_pairs(fmt, table.s12)
    s22 = s11 if _same_bits(table.s22, table.s11) else _complex_to_pairs(fmt, table.s22)
    columns = [table.f / FREQUENCY_UNITS[unit], *s11, *s21, *s12, *s22]
    lines = [f"! herd S-parameter table: {table.label or table.provenance.value}"]
    if table.mag_only:
        lines.append("!MAGONLY")
    lines.append(f"# {unit} S {fmt} R {table.z0:.17g}")
    yield "\n".join(lines) + "\n"
    # A model table's s12 equals its s21 and its s22 its s11: about three of
    # the nine columns are formatted, each one string per distinct value (a
    # matched model's s11 is one value).
    for strings in row_blocks(columns, ["%.17g"] * len(columns)):
        yield "\n".join(map(" ".join, zip(*strings))) + "\n"


def write_touchstone(table: SParamTable, fmt: str = "RI", unit: str = "HZ") -> str:
    """Serialize a table as Touchstone v1 text, 17 significant digits."""
    return "".join(touchstone_blocks(table, fmt, unit))


def insertion_loss_db(s21):
    """-20 log10 |s21| [dB], elementwise over an array or for one value;
    +inf for zero transmission."""
    with np.errstate(divide="ignore"):
        return -20.0 * np.log10(np.abs(s21))


def return_loss_db(s11):
    """20 log10 |s11| [dB], elementwise over an array or for one value;
    -inf for a perfect match."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.abs(s11))


def band_metrics(table: SParamTable, band: tuple[float, float]) -> BandMetric:
    """Insertion-loss / attenuation / ripple / return-loss figures over the
    closed band, from the grid points inside it."""
    lo, hi = band
    if not lo < hi:
        raise DomainError(f"band must satisfy f_low < f_high (got {lo!r}, {hi!r})")
    inside = (table.f >= lo) & (table.f <= hi)
    if not inside.any():
        raise DomainError(f"no grid points inside band [{lo!r}, {hi!r}] Hz")
    losses = insertion_loss_db(table.s21[inside])
    worst_loss = float(losses.max())
    least_loss = float(losses.min())
    return BandMetric(
        band=band,
        max_insertion_loss_db=worst_loss,
        min_attenuation_db=least_loss,
        max_ripple_db=worst_loss - least_loss,
        worst_return_loss_db=float(return_loss_db(table.s11[inside]).max()),
    )


# The BandMetric figure each claim kind reads, and the test the figure must
# pass against the threshold: at most or at least.
_CLAIM_FIGURES = {
    ClaimKind.MAX_IL: ("max_insertion_loss_db", operator.le),
    ClaimKind.MIN_ATT: ("min_attenuation_db", operator.ge),
    ClaimKind.MAX_RIPPLE: ("max_ripple_db", operator.le),
}


def check_claims(table: SParamTable, claims: list[Claim]) -> ComplianceReport:
    """Evaluate each claim against the table; a band without data yields an
    error row rather than an exception."""
    results = []
    for claim in claims:
        try:
            metric = band_metrics(table, claim.band)
        except DomainError as exc:
            results.append(ClaimResult(claim, observed_db=None, passed=False, error=str(exc)))
            continue
        figure, holds = _CLAIM_FIGURES[claim.kind]
        observed = getattr(metric, figure)
        results.append(ClaimResult(claim, observed, passed=holds(observed, claim.threshold_db)))
    return ComplianceReport(results=tuple(results))
