"""Full-band S-parameter prediction by cascading per-section two-ports.

Per section, the power transmission is the in-band evanescent value below the
aperture corner frequency and a calibrated per-aperture drain above it, with
a logistic blend across the corner so the curve stays smooth. Sections are
chained through transfer (T) matrices; the matched default chain is s21**N in
closed form.

The model is evaluated as array expressions over a whole frequency grid, and
tables hold one complex array per S-parameter (the scikit-rf ``Network``
layout), so no Python object is built per frequency point.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .constants import C0
from .errors import DomainError
from .leakage import evanescent_gamma
from .model import FilterDesign, FrequencyGrid
from .modes import corner_frequency

# Fraction of the corner frequency over which the below/above-cutoff branches
# are blended. The logistic runs from 1% to 99% across that band.
DEFAULT_TRANSITION_WIDTH = 0.10
_LOGISTIC_SHARPNESS = 2.0 * math.log(99.0)


class Provenance(enum.Enum):
    MODEL = "MODEL"
    MEASURED = "MEASURED"


@dataclass(frozen=True)
class TwoPort:
    """2x2 scattering matrix at a single frequency."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex
    z0: float = 50.0

    def max_singular_value(self) -> float:
        """Largest singular value of [[s11, s12], [s21, s22]], in closed form.

        sigma_max^2 = (|S|_F^2 + sqrt(|S|_F^4 - 4 |det S|^2)) / 2, evaluated
        as the top eigenvalue of S^H S = [[p, q], [q*, r]], that is
        (p + r)/2 + hypot((p - r)/2, |q|), which has no cancellation when the
        two singular values are close. Entries are first divided by the
        largest magnitude so that squaring neither overflows nor underflows.
        """
        scale = max(abs(self.s11), abs(self.s12), abs(self.s21), abs(self.s22))
        if scale == 0.0:
            return 0.0
        a, b = self.s11 / scale, self.s12 / scale
        c, d = self.s21 / scale, self.s22 / scale
        p = (a * a.conjugate() + c * c.conjugate()).real
        r = (b * b.conjugate() + d * d.conjugate()).real
        q = a.conjugate() * b + c.conjugate() * d
        return scale * math.sqrt(0.5 * (p + r) + math.hypot(0.5 * (p - r), abs(q)))

    def is_passive(self, tol: float = 1e-9) -> bool:
        return self.max_singular_value() <= 1.0 + tol


class SParamTable:
    """Frequency grid plus a 2x2 scattering matrix per grid point.

    The matrices are held as four read-only complex128 arrays ``s11``,
    ``s21``, ``s12``, ``s22`` aligned with ``f`` (the grid's float64 array),
    with one reference impedance ``z0`` for the whole table. Pass either
    ``entries`` (one :class:`TwoPort` per point, all with one ``z0``) or the
    four arrays as keywords (``entries=None``). The table keeps read-only
    views of the arrays it is given.
    """

    __slots__ = ("grid", "s11", "s21", "s12", "s22", "z0", "provenance", "label", "mag_only")

    def __init__(
        self,
        grid: FrequencyGrid,
        entries: Sequence[TwoPort] | None,
        provenance: Provenance,
        label: str = "",
        mag_only: bool = False,
        *,
        s11=None,
        s21=None,
        s12=None,
        s22=None,
        z0: float = 50.0,
    ):
        if entries is not None:
            impedances = {port.z0 for port in entries}
            if len(impedances) > 1:
                raise DomainError(
                    f"all two-ports of a table must share one reference impedance "
                    f"(got {sorted(impedances)!r})"
                )
            z0 = impedances.pop() if impedances else z0
            columns = [(p.s11, p.s21, p.s12, p.s22) for p in entries]
            s11, s21, s12, s22 = np.array(columns, dtype=complex).reshape(-1, 4).T.copy()
        arrays = []
        for name, values in (("s11", s11), ("s21", s21), ("s12", s12), ("s22", s22)):
            if values is None:
                raise DomainError(f"table needs entries or all four S-parameter arrays (no {name})")
            values = np.asarray(values, dtype=complex).view()
            if values.shape != (len(grid),):
                raise DomainError(
                    f"table needs one entry per grid point "
                    f"(got {values.size} entries for {len(grid)} points)"
                )
            values.flags.writeable = False
            arrays.append(values)
        self.grid = grid
        self.s11, self.s21, self.s12, self.s22 = arrays
        self.z0 = float(z0)
        self.provenance = provenance
        self.label = label
        self.mag_only = mag_only

    @property
    def f(self) -> np.ndarray:
        return self.grid.f

    @property
    def entries(self) -> "_TwoPortView":
        """Per-point :class:`TwoPort` view, built on read."""
        return _TwoPortView(self)

    def __repr__(self) -> str:
        return (
            f"SParamTable({len(self.grid)} points, {self.provenance.value}, z0={self.z0!r}, "
            f"label={self.label!r}, mag_only={self.mag_only!r})"
        )


class _TwoPortView(Sequence):
    """Read-only sequence of one :class:`TwoPort` per point of a table."""

    __slots__ = ("_table",)

    def __init__(self, table: SParamTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.grid)

    def __getitem__(self, index: int) -> TwoPort:
        t = self._table
        return TwoPort(
            s11=complex(t.s11[index]),
            s12=complex(t.s12[index]),
            s21=complex(t.s21[index]),
            s22=complex(t.s22[index]),
            z0=t.z0,
        )

    def __iter__(self):
        t = self._table
        columns = (t.s11.tolist(), t.s12.tolist(), t.s21.tolist(), t.s22.tolist())
        for s11, s12, s21, s22 in zip(*columns):
            yield TwoPort(s11=s11, s12=s12, s21=s21, s22=s22, z0=t.z0)


def _section(
    design: FilterDesign,
    f: np.ndarray,
    transition_width: float,
    return_loss_floor_db: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(s11, s21) of one section at every frequency of ``f`` (s22 = s11 and
    s12 = s21 by symmetry and reciprocity)."""
    if not 0.0 < transition_width < 1.0:
        raise DomainError(f"transition width must lie in (0, 1) (got {transition_width!r})")
    if return_loss_floor_db is not None and not (
        math.isfinite(return_loss_floor_db) and return_loss_floor_db < 0.0
    ):
        raise DomainError(
            f"return-loss floor must be finite and < 0 dB (got {return_loss_floor_db!r})"
        )
    fc = corner_frequency(design)
    n_ap = design.apertures_per_section

    # Evanescent decay of the dominant aperture mode. At and above the corner
    # gamma is 0, so amp = 1 and the below-cutoff transmission is exactly 0.
    amp = np.exp(evanescent_gamma(design, fc, f) * -design.aperture.depth_d)
    t_below = (1.0 - amp * amp) ** n_ap
    t_above = (1.0 - design.stopband_kappa) ** n_ap

    # Logistic stopband weight: 0 deep in band, 1/2 at the corner, 1 above,
    # clamped at |arg| = 700. Below -700 it is set to exactly 0 (exp(-arg)
    # may overflow there); above +700 the logistic already rounds to 1.
    arg = (f - fc) * (_LOGISTIC_SHARPNESS / (transition_width * fc))
    with np.errstate(over="ignore"):
        weight = np.where(arg > -700.0, 1.0 / (1.0 + np.exp(-arg)), 0.0)
    t_power = (1.0 - weight) * t_below + weight * t_above

    delay = 2.0 * math.pi * design.section_pitch * design.coax_fill.refractive_index / C0
    phase = np.exp(-1j * delay * f)
    if return_loss_floor_db is None:
        return np.zeros_like(phase), np.sqrt(t_power) * phase
    refl = 10.0 ** (return_loss_floor_db / 20.0)
    return 1j * refl * phase, np.sqrt((1.0 - refl * refl) * t_power) * phase


def _chain(s11: np.ndarray, s21: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(s11, s21) of ``count`` identical symmetric reciprocal sections.

    Matched sections chain as s21**count. Otherwise the section's T-matrix
    [[s21 - s11^2/s21, s11/s21], [-s11/s21, 1/s21]] is raised to the power
    ``count``, one batched 2x2 product per step, point by point.
    """
    if count == 1:
        return s11, s21
    if not s11.any():
        return s11, s21**count
    p11 = (s21 * s21 - s11 * s11) / s21
    p12 = s11 / s21
    p21 = -s11 / s21
    p22 = 1.0 / s21
    t11, t12, t21, t22 = p11, p12, p21, p22
    for _ in range(count - 1):
        t11, t12, t21, t22 = (
            t11 * p11 + t12 * p21,
            t11 * p12 + t12 * p22,
            t21 * p11 + t22 * p21,
            t21 * p12 + t22 * p22,
        )
    return t12 / t22, 1.0 / t22


def filter_response(
    design: FilterDesign,
    grid: FrequencyGrid,
    transition_width: float = DEFAULT_TRANSITION_WIDTH,
    return_loss_floor_db: float | None = None,
) -> SParamTable:
    """Cascaded response of all sections over a frequency grid.

    Every point is computed independently, so the result does not depend on
    how the grid is split or ordered.
    """
    s11, s21 = _section(design, grid.f, transition_width, return_loss_floor_db)
    if not s21.all():
        raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    s11, s21 = _chain(s11, s21, design.sections)
    return SParamTable(
        grid=grid,
        entries=None,
        provenance=Provenance.MODEL,
        label=f"cascade model, {design.sections} sections",
        s11=s11,
        s21=s21,
        s12=s21,
        s22=s11,
    )


def attenuation_vs_sections(
    design: FilterDesign, f: float, max_sections: int
) -> list[tuple[int, float]]:
    """Attenuation at ``f`` for 1..max_sections sections [(count, dB)].

    Matched identical sections make this exactly linear in the count: row n
    is n times the attenuation of one section.
    """
    if max_sections < 1:
        raise DomainError(f"max_sections must be >= 1 (got {max_sections!r})")
    single = filter_response(replace(design, sections=1), FrequencyGrid((f,)))
    att = -20.0 * math.log10(abs(complex(single.s21[0])))
    return [(count, count * att) for count in range(1, max_sections + 1)]


def calibrate_kappa(design: FilterDesign, target_total_db: float) -> float:
    """Per-aperture drain fraction giving ``target_total_db`` of attenuation
    from the full section count. The drain model is frequency-flat, so the
    fraction holds at every stopband frequency.
    """
    if not (math.isfinite(target_total_db) and target_total_db >= 0.0):
        raise DomainError(f"target attenuation must be finite and >= 0 dB (got {target_total_db!r})")
    return 1.0 - 10.0 ** (-target_total_db / (10.0 * design.total_apertures))
