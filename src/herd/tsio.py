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

# Frequency plus four complex pairs per data row.
_ROW_FORMAT = " ".join(["%.17g"] * 9)

# Parsed rows are moved from Python floats into an array this many at a time,
# so a long file never holds one float object per value.
_BLOCK_ROWS = 1024


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
    description: str
    band: tuple[float, float]
    kind: ClaimKind
    threshold_db: float
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


def parse_touchstone(text: str) -> SParamTable:
    """Parse Touchstone v1 two-port text into a MEASURED table.

    Structural faults (option line, column count, non-numeric tokens) are
    reported as they are met. Value faults (non-finite numbers, frequencies
    that are not positive or not strictly increasing) are checked on the
    whole block once every row is read; the first offending row is reported.
    """
    unit_scale = None
    fmt = None
    z0 = 50.0
    mag_only = False
    blocks: list[np.ndarray] = []
    rows: list[list[float]] = []
    row_lines: list[int] = []
    lineno = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        bang = line.find("!")
        if bang >= 0:
            if line[bang + 1 :].strip().upper() == "MAGONLY":
                mag_only = True
            line = line[:bang]
        line = line.strip()
        if not line:
            continue

        if line.startswith("["):
            raise ParseError("Touchstone v2 blocks are not supported", line=lineno)

        if line.startswith("#"):
            if fmt is not None:
                raise ParseError("more than one option line", line=lineno)
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
            unit_scale = FREQUENCY_UNITS[tokens[0].upper()]
            fmt = tokens[2].upper()
            continue

        if fmt is None:
            raise ParseError("data row before the option line", line=lineno)
        tokens = line.split()
        if len(tokens) != 9:
            raise ParseError(f"expected 9 columns, got {len(tokens)}", line=lineno)
        try:
            rows.append(list(map(float, tokens)))
        except ValueError:
            raise ParseError(f"non-numeric data in row {raw.strip()!r}", line=lineno) from None
        row_lines.append(lineno)
        if len(rows) == _BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows.clear()

    if fmt is None:
        raise ParseError("missing option line", line=lineno)
    if not row_lines:
        raise ParseError("no data rows", line=lineno)

    blocks.append(np.array(rows, dtype=float).reshape(-1, 9))
    data = np.concatenate(blocks)
    with np.errstate(over="ignore"):
        f_hz = data[:, 0] * unit_scale
    bad = ~(np.isfinite(data).all(axis=1) & np.isfinite(f_hz) & (f_hz > 0.0))
    bad[1:] |= ~(f_hz[1:] > f_hz[:-1])
    if bad.any():
        i = int(bad.argmax())
        f = f_hz[i].item()
        if not (np.isfinite(data[i]).all() and math.isfinite(f)):
            message = f"non-finite value in row {data[i].tolist()!r}"
        elif not f > 0.0:
            message = f"frequency must be > 0 Hz (got {f!r} Hz)"
        else:
            before = f_hz[i - 1].item()
            message = f"frequencies must be strictly increasing ({before!r} Hz -> {f!r} Hz)"
        raise ParseError(message, line=row_lines[i])

    s11, s21, s12, s22 = (
        _pairs_to_complex(fmt, data[:, col], data[:, col + 1]) for col in (1, 3, 5, 7)
    )
    if mag_only:
        s11, s21, s12, s22 = (np.abs(s).astype(complex) for s in (s11, s21, s12, s22))
    return SParamTable(
        grid=FrequencyGrid(f_hz),
        entries=None,
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


def write_touchstone(table: SParamTable, fmt: str = "RI", unit: str = "HZ") -> str:
    """Serialize a table as Touchstone v1 text, 17 significant digits."""
    fmt = fmt.upper()
    unit = unit.upper()
    if fmt not in FORMATS:
        raise DomainError(f"format must be one of {FORMATS} (got {fmt!r})")
    if unit not in FREQUENCY_UNITS:
        raise DomainError(f"unit must be one of {tuple(FREQUENCY_UNITS)} (got {unit!r})")

    columns = [table.f / FREQUENCY_UNITS[unit]]
    for values in (table.s11, table.s21, table.s12, table.s22):
        columns.extend(_complex_to_pairs(fmt, values))
    lines = [f"! herd S-parameter table: {table.label or table.provenance.value}"]
    if table.mag_only:
        lines.append("!MAGONLY")
    lines.append(f"# {unit} S {fmt} R {table.z0:.17g}")
    lines.extend(map(_ROW_FORMAT.__mod__, zip(*(column.tolist() for column in columns))))
    return "\n".join(lines) + "\n"


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


def check_claims(table: SParamTable, claims: list[Claim]) -> ComplianceReport:
    """Evaluate each claim against the table; a band without data yields an
    error row rather than an exception."""
    results = []
    for claim in claims:
        try:
            metric = band_metrics(table, claim.band)
        except DomainError as exc:
            results.append(
                ClaimResult(
                    description=claim.describe(),
                    band=claim.band,
                    kind=claim.kind,
                    threshold_db=claim.threshold_db,
                    observed_db=None,
                    passed=False,
                    error=str(exc),
                )
            )
            continue
        if claim.kind is ClaimKind.MAX_IL:
            observed = metric.max_insertion_loss_db
            passed = observed <= claim.threshold_db
        elif claim.kind is ClaimKind.MIN_ATT:
            observed = metric.min_attenuation_db
            passed = observed >= claim.threshold_db
        else:
            observed = metric.max_ripple_db
            passed = observed <= claim.threshold_db
        results.append(
            ClaimResult(
                description=claim.describe(),
                band=claim.band,
                kind=claim.kind,
                threshold_db=claim.threshold_db,
                observed_db=observed,
                passed=passed,
            )
        )
    return ComplianceReport(results=tuple(results))
