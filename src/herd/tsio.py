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
from array import array

import numpy as np

from . import numtext
from .cascade import Provenance, SParamTable
from .errors import DomainError, ParseError
from .model import FrequencyGrid, value_class

FREQUENCY_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")

# Zero magnitude cannot be written in DB format; clamp at -400 dB (1e-20),
# indistinguishable from zero at any metric tolerance used here.
_DB_FLOOR = -400.0

# Written rows are formatted this many at a time (``row_blocks``), so the
# text of a long table is never held whole, only its arrays; each block's
# text is written in pieces of ``numtext.PIECE_BYTES``.
WRITE_BLOCK_ROWS = 4096


@value_class
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


@value_class
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


@value_class
class ClaimResult:
    claim: Claim
    observed_db: float | None
    passed: bool
    error: str | None = None


@value_class
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


def _content(raw: str) -> str:
    """A line's text before its ``!`` comment, stripped."""
    bang = raw.find("!")
    return (raw if bang < 0 else raw[:bang]).strip()


def _option_line(lines: list[str]) -> tuple[int, float, str, float]:
    """Walk the lines up to the option line: its line number, and the unit
    scale, format and reference impedance it sets."""
    for lineno, raw in enumerate(lines, start=1):
        line = _content(raw)
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
        return lineno, FREQUENCY_UNITS[tokens[0].upper()], tokens[2].upper(), z0
    raise ParseError("missing option line", line=len(lines))


def _walk_rows(lines: list[str], start: int, stop: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Read the lines after the option line (``lines[start:]``) one at a
    time: the data rows as an (n, 9) array and the line number of each row.
    Raises the first structural fault (a second option line, a v2 block, a
    wrong column count, a token ``float`` refuses, no rows at all) as it is
    met. With ``stop``, the walk ends once it has read that many rows.

    This is the reference reading of the data rows and the only place that
    knows their line numbers; ``parse_touchstone`` reads rows with numpy's
    text reader and comes here only where numpy refuses them or a faulty
    line must be named. The values go straight into one buffer of C
    doubles, so a long file never holds one float object per value.
    """
    values = array("d")
    row_lines: list[int] = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = _content(raw)
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
            values.extend(map(float, tokens))
        except ValueError:
            raise ParseError(f"non-numeric data in row {raw.strip()!r}", line=lineno) from None
        row_lines.append(lineno)
        if len(row_lines) == stop:
            break
    if not row_lines:
        raise ParseError("no data rows", line=len(lines))
    return np.frombuffer(values).reshape(-1, 9), row_lines


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
    start, unit_scale, fmt, z0 = _option_line(lines)
    data = _load_rows(lines[start:])
    row_lines = None
    if data is None:
        data, row_lines = _walk_rows(lines, start)

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

    # a ``!MAGONLY`` comment on any line marks the whole file
    mag_only = any(line.partition("!")[2].strip().upper() == "MAGONLY" for line in lines if "!" in line)
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


def _column_text(values: np.ndarray, bits: np.ndarray, style: str) -> np.ndarray:
    """``numtext.column_text`` of ``values``, each distinct value (by its
    ``bits``) formatted once. A strictly increasing column (a frequency
    grid, a count) is formatted whole without being sorted; any other is
    sorted to find its repeats. A column without repeats (a wrapped phase)
    is then formatted whole, in order, and a column of one value (a flat
    stopband) from that value. Only a column with some repeats is reduced
    to its distinct values and gathered back."""
    if (values[1:] > values[:-1]).all():
        return numtext.column_text(values, style)
    ordered = np.sort(bits)
    if ordered[0] == ordered[-1]:
        one = numtext.column_text(values[:1], style)
        return np.broadcast_to(one, (len(values), one.shape[1]))
    if (ordered[1:] != ordered[:-1]).all():
        return numtext.column_text(values, style)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return numtext.column_text(distinct.view(np.float64), style)[inverse.reshape(-1)]


def row_blocks(columns, styles, texts):
    """The rows of the equal-length float64 ``columns`` as text, formatted
    in blocks of ``WRITE_BLOCK_ROWS`` rows and yielded in pieces of whole
    rows (``numtext.block_pieces``): each row is ``texts[0]``, the first
    column's value, ``texts[1]``, ..., the last column's value,
    ``texts[-1]``, with each value written in its column's style.

    A style is the printf format ``"%.17g"``, ``"%.12g"`` or ``"%d"`` (for
    a column of integers); ``"json"``: the float's repr, as ``json.dumps``
    writes it, and ``null`` for a non-finite value; or ``"text"``:
    ``"%.12g"``, and ``n/a`` for a non-finite value. Values are told apart
    by their bits, so ``-0.0`` and ``0.0`` stay distinct and a NaN equals
    itself.

    The table is planned once. A column whose bits are equal in every row
    (a matched model's s11) is formatted once and written as part of the
    fixed text between its neighbours. A column with the style and bits of
    an earlier one (a model's s12 beside its s21) reuses that column's text.
    Each block formats only the remaining columns (``_column_text``), and a
    table of constant columns only repeats its one row, one piece a block.
    """
    rows = len(columns[0])
    if not rows:
        return
    # the columns each block formats, and the one each varying column writes
    formatted, sources, fixed = [], [], [texts[0]]
    for column, style, text in zip(columns, styles, texts[1:]):
        values = np.asarray(column, dtype=np.float64)
        bits = values.view(np.int64)
        if (bits == bits[0]).all():
            value = "".join(numtext.block_pieces([numtext.column_text(values[:1], style)], ["", ""]))
            fixed[-1] += value + text
            continue
        for source, (_, seen, seen_style) in enumerate(formatted):
            if seen_style == style and np.array_equal(seen, bits):
                break
        else:
            source = len(formatted)
            formatted.append((values, bits, style))
        sources.append(source)
        fixed.append(text)
    for start in range(0, rows, WRITE_BLOCK_ROWS):
        stop = min(start + WRITE_BLOCK_ROWS, rows)
        if formatted:
            block = [_column_text(v[start:stop], b[start:stop], style) for v, b, style in formatted]
            yield from numtext.block_pieces([block[source] for source in sources], fixed)
        else:
            yield fixed[0] * (stop - start)


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
    label = table.label or table.provenance.value
    yield from touchstone_text(table.f, (s11, s21, s12, s22), fmt, unit, table.z0, label, table.mag_only)


def model_touchstone_blocks(f, loss_db, phase, label: str, unit: str = "HZ"):
    """The Touchstone v1 text, in DB pairs and the layout of
    :func:`touchstone_blocks`, of a matched reciprocal model over the grid
    ``f`` [Hz] from its loss [dB] and the phase of its s21 [rad]: s21 = s12
    at -loss dB (0 dB where lossless, the floor past it), s11 = s22 at the
    floor and 0 degrees. ``unit`` is a key of ``FREQUENCY_UNITS``."""
    s21 = (np.maximum(0.0 - loss_db, _DB_FLOOR), np.degrees(phase))
    s11 = (np.broadcast_to(_DB_FLOOR, len(f)), np.broadcast_to(0.0, len(f)))
    yield from touchstone_text(f, (s11, s21, s21, s11), "DB", unit, 50.0, label)


def touchstone_text(f, pairs, fmt: str, unit: str, z0: float, label: str, mag_only: bool = False):
    """Touchstone v1 text in pieces, 17 significant digits: the header
    lines, then the rows of the grid ``f`` [Hz] in blocks. ``pairs`` holds
    the two columns of s11, s21, s12 and s22 in order, already in the
    format ``fmt`` (a valid one, as is ``unit``)."""
    lines = [f"! herd S-parameter table: {label}"]
    if mag_only:
        lines.append("!MAGONLY")
    lines.append(f"# {unit} S {fmt} R {z0:.17g}")
    yield "\n".join(lines) + "\n"
    columns = [f / FREQUENCY_UNITS[unit], *(column for pair in pairs for column in pair)]
    # A matched model's s11 and s22 pairs are constant, so row_blocks writes
    # those four columns once per table; s12's pair reuses s21's arrays,
    # which leaves three of the nine columns formatted in each block.
    yield from row_blocks(columns, ["%.17g"] * len(columns), ["", *[" "] * 8, "\n"])


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


def band_points(f: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Which points of the grid ``f`` lie inside the closed band; the band
    must be ordered and hold at least one point."""
    lo, hi = band
    if not lo < hi:
        raise DomainError(f"band must satisfy f_low < f_high (got {lo!r}, {hi!r})")
    inside = (f >= lo) & (f <= hi)
    if not inside.any():
        raise DomainError(f"no grid points inside band [{lo!r}, {hi!r}] Hz")
    return inside


def band_figures(band: tuple[float, float], losses: np.ndarray, worst_return_loss_db: float) -> BandMetric:
    """The figures of a band from the insertion losses [dB] at its grid
    points and the worst return loss there."""
    worst_loss = float(losses.max())
    least_loss = float(losses.min())
    return BandMetric(
        band=band,
        max_insertion_loss_db=worst_loss,
        min_attenuation_db=least_loss,
        max_ripple_db=worst_loss - least_loss,
        worst_return_loss_db=worst_return_loss_db,
    )


def band_metrics(table: SParamTable, band: tuple[float, float]) -> BandMetric:
    """Insertion-loss / attenuation / ripple / return-loss figures over the
    closed band, from the grid points inside it."""
    inside = band_points(table.f, band)
    rl = float(return_loss_db(table.s11[inside]).max())
    return band_figures(band, insertion_loss_db(table.s21[inside]), rl)


# The BandMetric figure each claim kind reads, and the test the figure must
# pass against the threshold: at most or at least.
_CLAIM_FIGURES = {
    ClaimKind.MAX_IL: ("max_insertion_loss_db", operator.le),
    ClaimKind.MIN_ATT: ("min_attenuation_db", operator.ge),
    ClaimKind.MAX_RIPPLE: ("max_ripple_db", operator.le),
}


def metrics_by_band(metric, bands) -> dict:
    """Each distinct band of ``bands``, in order, mapped to ``metric(band)``
    (a :class:`BandMetric`), or to the DomainError that the band raises."""
    metrics = {}
    for band in dict.fromkeys(bands):
        try:
            metrics[band] = metric(band)
        except DomainError as exc:
            metrics[band] = exc
    return metrics


def judge_claims(claims: list[Claim], metrics: dict) -> ComplianceReport:
    """Judge each claim on the figures of its band in ``metrics`` (from
    :func:`metrics_by_band`); a band without data yields an error row."""
    results = []
    for claim in claims:
        metric = metrics[claim.band]
        if isinstance(metric, DomainError):
            results.append(ClaimResult(claim, observed_db=None, passed=False, error=str(metric)))
            continue
        figure, holds = _CLAIM_FIGURES[claim.kind]
        observed = getattr(metric, figure)
        results.append(ClaimResult(claim, observed, passed=holds(observed, claim.threshold_db)))
    return ComplianceReport(results=tuple(results))


def check_claims(table: SParamTable, claims: list[Claim]) -> ComplianceReport:
    """Evaluate each claim against the table; a band without data yields an
    error row rather than an exception."""
    bands = [claim.band for claim in claims]
    return judge_claims(claims, metrics_by_band(lambda band: band_metrics(table, band), bands))
