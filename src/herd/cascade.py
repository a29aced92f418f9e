"""Full-band S-parameter prediction by cascading per-section two-ports.

Per section, the power transmission is the in-band evanescent value below the
aperture corner frequency and a calibrated per-aperture drain above it, with
a logistic blend of fixed width across the corner so the curve stays smooth.
Sections are matched (no reflection), so N of them chain as s21**N in closed
form.

The model is evaluated as array expressions over a whole frequency grid, and
tables hold one complex array per S-parameter (the scikit-rf ``Network``
layout), so no Python object is built per frequency point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .errors import DomainError
from .leakage import all_true, decay_amplitude, evanescent_gamma, frequencies
from .model import DEFAULT_TRANSITION_WIDTH, LOGISTIC_SHARPNESS, FilterDesign, FrequencyGrid
from .modes import corner_frequency

# Most rows attenuation_vs_sections lists. Its list of (count, dB) tuples
# holds about 120 bytes per row, so a list at the bound adds about 60 MB to
# the interpreter. `herd sections` builds its table as arrays instead, and
# is bounded by model.MAX_GRID_POINTS.
MAX_SECTIONS = 500_000


class Provenance(enum.Enum):
    MODEL = "MODEL"
    MEASURED = "MEASURED"


def max_singular_value(s11, s12, s21, s22):
    """Largest singular value of [[s11, s12], [s21, s22]], in closed form,
    elementwise over arrays or for one matrix.

    sigma_max^2 = (|S|_F^2 + sqrt(|S|_F^4 - 4 |det S|^2)) / 2, evaluated
    as the top eigenvalue of S^H S = [[p, q], [q*, r]], that is
    (p + r)/2 + hypot((p - r)/2, |q|), which has no cancellation when the
    two singular values are close. Entries are first divided by the
    largest magnitude so that squaring neither overflows nor underflows.
    """
    s = np.array([s11, s12, s21, s22], dtype=complex)
    scale = np.abs(s).max(axis=0)
    # Part by part: numpy's complex division overflows on a subnormal scale.
    unit = np.where(scale == 0.0, 1.0, scale)
    a, b, c, d = s.real / unit + 1j * (s.imag / unit)
    p = (a * a.conjugate() + c * c.conjugate()).real
    r = (b * b.conjugate() + d * d.conjugate()).real
    q = a.conjugate() * b + c.conjugate() * d
    return scale * np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q)))


@dataclass(frozen=True)
class TwoPort:
    """2x2 scattering matrix at a single frequency."""

    s11: complex
    s12: complex
    s21: complex
    s22: complex


class SParamTable:
    """Frequency grid plus a 2x2 scattering matrix per grid point.

    The matrices are held as four read-only complex128 arrays ``s11``,
    ``s21``, ``s12``, ``s22`` aligned with ``f`` (the grid's float64 array),
    with one reference impedance ``z0``, finite and > 0 ohm, for the whole
    table. The table keeps read-only views of the arrays it is given.
    """

    __slots__ = ("grid", "s11", "s21", "s12", "s22", "z0", "provenance", "label", "mag_only")

    def __init__(
        self,
        grid: FrequencyGrid,
        provenance: Provenance,
        label: str = "",
        mag_only: bool = False,
        *,
        s11,
        s21,
        s12,
        s22,
        z0: float = 50.0,
    ):
        z0 = float(z0)
        if not 0.0 < z0 < math.inf:
            raise DomainError(f"reference impedance must be finite and > 0 ohm (got {z0!r})")
        arrays = []
        for values in (s11, s21, s12, s22):
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
        self.z0 = z0
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


class _TwoPortView:
    """One :class:`TwoPort` per point of a table, in grid order."""

    __slots__ = ("_table",)

    def __init__(self, table: SParamTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.grid)

    def __iter__(self):
        t = self._table
        columns = (t.s11.tolist(), t.s12.tolist(), t.s21.tolist(), t.s22.tolist())
        for s11, s12, s21, s22 in zip(*columns):
            yield TwoPort(s11=s11, s12=s12, s21=s21, s22=s22)


def _section_power(design: FilterDesign, fc: float, f):
    """Power transmission |s21|^2 of one section at ``f`` (a float or an
    array), with ``fc`` the design's :func:`corner_frequency`. For a float
    ``f`` the clamp below is Python's ``min``, which returns what
    ``np.minimum`` does: with fc > 0 the operands are never two zeros, and a
    NaN f - fc comes first. The logistic argument it gives lies within about
    +-92, so working it in Python floats loses no overflow warning."""
    n_ap = design.apertures_per_section
    one = type(f) is float

    # Evanescent decay of the dominant aperture mode. At and above the corner
    # gamma is 0, so amp = 1 and the below-cutoff transmission is exactly 0.
    # np.power runs the same loop for one frequency as for an array, so a
    # figure has the same bits either way (a numpy scalar's ** calls the C
    # library's pow instead).
    amp = decay_amplitude(evanescent_gamma(design, fc, f), design.aperture.depth_d, one)
    t_below = np.power(1.0 - amp * amp, n_ap)
    t_above = (1.0 - design.stopband_kappa) ** n_ap

    # Logistic stopband weight: 0 deep in band, 1/2 at the corner, 1 above.
    # A valid design keeps the scale finite (model.validate). For f > 0,
    # arg > -LOGISTIC_SHARPNESS / DEFAULT_TRANSITION_WIDTH (about -92), so
    # exp(-arg) cannot overflow. Clamping f - fc at fc keeps the product from
    # overflowing far above a tiny corner; from there up arg is at least
    # about 92, where exp(-arg) < 2**-53 and the weight rounds to 1 either way.
    minimum = min if one else np.minimum
    arg = minimum(f - fc, fc) * (LOGISTIC_SHARPNESS / (DEFAULT_TRANSITION_WIDTH * fc))
    weight = 1.0 / (1.0 + np.exp(-arg))
    return (1.0 - weight) * t_below + weight * t_above


def filter_response(design: FilterDesign, grid: FrequencyGrid) -> SParamTable:
    """Cascaded response of all sections over a frequency grid.

    The sections are matched (s11 = 0), so N identical sections chain as
    s21**N. Every point is computed independently, so the result does not
    depend on how the grid is split or ordered.
    """
    f = grid.f
    delay = 2.0 * math.pi * design.section_pitch * design.coax_fill.refractive_index / C0
    s21 = np.sqrt(_section_power(design, corner_frequency(design), f)) * np.exp(-1j * delay * f)
    if not s21.all():
        raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    s21 = s21**design.sections
    s11 = np.zeros_like(s21)
    return SParamTable(
        grid,
        Provenance.MODEL,
        f"cascade model, {design.sections} sections",
        s11=s11,
        s21=s21,
        s12=s21,
        s22=s11,
    )


def section_attenuation_db(design: FilterDesign, f):
    """Attenuation of one section [dB], -10 log10 |s21|^2, and +0 rather
    than -0 where |s21| is exactly 1: a float at one frequency ``f``, an
    array at an array of them, with the same bits either way.

    Each frequency must be finite and > 0, and the section must pass some
    power there. The first frequency that fails raises, in order, as one
    call per frequency would."""
    one, freqs = frequencies(f)
    inside = (freqs > 0.0) & (freqs < math.inf)
    bad = None if all_true(one, inside) else int(np.argmin(inside))
    # A zero transmission before the first bad frequency is the first fault.
    head = freqs if bad is None else np.reshape(freqs, -1)[:bad]
    power = _section_power(design, corner_frequency(design), head)
    if not all_true(type(head) is float, power):
        raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    if bad is not None:
        got = np.reshape(freqs, -1)[bad].item()
        raise DomainError(f"frequency grid points must be finite and > 0 (got {got!r})")
    att = -10.0 * np.log10(power) + 0.0
    return float(att) if one else att


def attenuation_vs_sections(
    design: FilterDesign, f: float, max_sections: int
) -> list[tuple[int, float]]:
    """Attenuation at ``f`` for 1..max_sections sections [(count, dB)].

    Matched identical sections make this exactly linear in the count: row n
    is n times :func:`section_attenuation_db`.
    """
    if max_sections < 1:
        raise DomainError(f"max_sections must be >= 1 (got {max_sections!r})")
    if max_sections > MAX_SECTIONS:
        raise DomainError(f"max_sections must be <= {MAX_SECTIONS} (got {max_sections!r})")
    att = section_attenuation_db(design, f)
    return [(count, count * att) for count in range(1, max_sections + 1)]


def calibrate_kappa(design: FilterDesign, target_total_db: float) -> float:
    """Per-aperture drain fraction giving ``target_total_db`` of attenuation
    from the full section count. The drain model is frequency-flat, so the
    fraction holds at every stopband frequency.
    """
    if not (math.isfinite(target_total_db) and target_total_db >= 0.0):
        raise DomainError(f"target attenuation must be finite and >= 0 dB (got {target_total_db!r})")
    return 1.0 - 10.0 ** (-target_total_db / (10.0 * design.total_apertures))
