"""Full-band S-parameter prediction by cascading per-section two-ports.

Per section, the power transmission is the in-band evanescent value below the
aperture corner frequency and a calibrated per-aperture drain above it, with
a logistic blend of fixed width across the corner so the curve stays smooth.
Sections are matched (no reflection), so N of them attenuate N times as much
as one, and their phases add.

The model is worked in dB: one kernel gives a section's loss from the logs
of its transmissions (:func:`_section_loss_db`), so a loss near 0 dB keeps
its digits, and the cascade is ``sections`` times it
(:func:`cascade_loss_db`). :func:`filter_response` builds the complex table,
which holds one complex array per S-parameter (the scikit-rf ``Network``
layout), from that figure and the wrapped phase; no Python object is built
per frequency point.
"""

from __future__ import annotations

import enum
import math
import sys

import numpy as np

from .constants import C0
from .errors import DomainError
from .leakage import DB_PER_LN, all_true, evanescent_gamma, frequencies, log_pass
from .model import DEFAULT_TRANSITION_WIDTH, LOGISTIC_SHARPNESS, FilterDesign, FrequencyGrid, value_class
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


@value_class
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


# A section whose loss exceeds this passes less power than the smallest
# positive float, 5e-324: it passes none that a float can hold.
_NO_POWER_DB = -10.0 * math.log10(5e-324)


def _section_loss_db(design: FilterDesign, fc: float, f):
    """Loss of one section [dB], -10 log10 of its power transmission, at
    ``f``, with ``fc`` the design's :func:`corner_frequency`: an
    ``np.float64`` for one frequency (a float, an int, a numpy scalar or a
    0-d array) and an array for an array of them; +0, never -0, where the
    section is lossless.

    The power is the blend (1 - w) t_below + w t_above of the below-cutoff
    transmission t_below = (1 - amp**2)**A past the section's A apertures
    and the drain t_above = (1 - kappa)**A, with w the logistic weight
    1 / (1 + e**-arg). It is worked in logs, so a small loss keeps its
    digits and a large one does not underflow:

    - at and above the corner amp = 1, t_below is 0 and the loss is
      -10/ln 10 (A log1p(-kappa) - log1p(e**-arg)) exactly;
    - below it, the loss is -10/ln 10 log1p(s), with
      s = (1 - w) expm1(A ln(1 - amp**2)) + w expm1(A log1p(-kappa)), the
      power less 1. Where the power is at most 1/2, s would cancel in
      log1p, and the log of the power is the log-sum of the two terms.

    So the below-cutoff branch runs only at frequencies strictly below the
    corner. A NaN frequency gives NaN. Callers pass finite frequencies.

    Logistic stopband weight: 0 deep in band, 1/2 at the corner, 1 above.
    A valid design keeps its scale finite (model.validate). For f > 0,
    arg > -LOGISTIC_SHARPNESS / DEFAULT_TRANSITION_WIDTH (about -92), so
    e**-arg cannot overflow. Clamping f - fc at fc keeps the product from
    overflowing far above a tiny corner; from there up arg is at least
    about 92, where e**-arg < 2**-132 and log1p of it is e**-arg.

    For a float ``f`` the clamp is Python's ``min``, which returns what
    ``np.minimum`` does: with fc > 0 the operands are never two zeros, and a
    NaN f - fc comes first. The logistic argument it gives lies within about
    +-92, so working it in Python floats loses no overflow warning. An array
    takes the steps of one frequency, so a figure has the same bits either
    way."""
    scale = LOGISTIC_SHARPNESS / (DEFAULT_TRANSITION_WIDTH * fc)
    # ln t_above; a valid kappa lies strictly between 0 and 1
    drain = design.apertures_per_section * math.log1p(-design.stopband_kappa)
    one = type(f) is not np.ndarray or not f.ndim
    arg = (min if type(f) is float else np.minimum)(f - fc, fc) * scale
    tail = np.exp(-arg)
    if one and f < fc:
        return -DB_PER_LN * _log_power_below(design, fc, f, True, tail, drain)
    log_power = drain - np.log1p(tail)
    if not one:
        below = f < fc
        if np.count_nonzero(below):
            log_power[below] = _log_power_below(design, fc, f[below], False, tail[below], drain)
    return -DB_PER_LN * log_power


def _log_power_below(design: FilterDesign, fc: float, f, one: bool, tail, drain):
    """ln of the blended power at frequencies ``f`` below the corner (one
    frequency if ``one``), from ``tail`` = e**-arg and ln t_above
    (``drain``); see :func:`_section_loss_db`."""
    gamma = evanescent_gamma(design, fc, f)
    log_below = design.apertures_per_section * log_pass(gamma, design.aperture.depth_d, one)
    weight = 1.0 / (1.0 + tail)
    rest = 1.0 - weight
    # the power less 1, a sum of two terms of one sign
    s = rest * np.expm1(log_below) + weight * math.expm1(drain)
    small = s <= -0.5
    if one:
        return _log_sum(log_below, rest, weight, drain) if small else np.log1p(s)
    if not small.any():
        return np.log1p(s)
    # log1p(-1) is -inf where the power is 0; those rows are replaced
    with np.errstate(divide="ignore"):
        log = np.log1p(s)
    log[small] = _log_sum(log_below[small], rest[small], weight[small], drain)
    return log


def _log_sum(log_below, rest, weight, drain):
    """ln((1 - w) t_below + w t_above) as the log-sum of its two terms, from
    ln t_below, 1 - w, w and ln t_above."""
    return np.logaddexp(log_below + np.log(rest), np.log(weight) + drain)


def _phase_delay(design: FilterDesign, f) -> float:
    """Phase across one section per hertz [rad/Hz], after checking that the
    phase at the grid's last (largest) frequency of ``f`` is finite."""
    delay = 2.0 * math.pi * design.section_pitch * design.coax_fill.refractive_index / C0
    # Past the float range the phase has no value, and numpy would warn and
    # give NaN.
    top = f[-1].item()
    if not delay * top < math.inf:
        raise DomainError(
            "the phase across one section, 2 pi section_pitch sqrt(coax_fill.eps_r) f / c0, "
            f"overflows at {top!r} Hz (section_pitch = {design.section_pitch!r} m, "
            f"coax_fill.eps_r = {design.coax_fill.eps_r!r})"
        )
    return delay


def cascade_loss_db(design: FilterDesign, grid: FrequencyGrid) -> np.ndarray:
    """Loss of the cascade over a frequency grid [dB]: ``sections`` times
    the loss of one section, so -s21 in dB, >= +0 everywhere (and inf
    where it exceeds the float range).

    Raises where the phase across one section overflows (as
    :func:`filter_response` must build it) and where a section passes no
    power. Every point is computed independently, so the result does not
    depend on how the grid is split or ordered.
    """
    f = grid.f
    _phase_delay(design, f)
    loss = _section_loss_db(design, corner_frequency(design), f)
    if not (loss <= _NO_POWER_DB).all():
        raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    # Enough sections attenuate past the float range: the loss is then inf.
    with np.errstate(over="ignore"):
        loss *= design.sections
    return loss


# Past this many sections the cascade's phase, up to sections * pi, may
# exceed the float range.
_MAX_PHASE_SECTIONS = sys.float_info.max / math.pi


def transmission_phase(design: FilterDesign, f: np.ndarray) -> np.ndarray:
    """Phase of the cascade's s21 [rad] at the grid frequencies ``f``:
    -sections * delay * f wrapped into [-pi, pi], as np.angle wraps it,
    with no complex exponential. One section's phase is first reduced into
    [-pi, pi] through sin and cos, which reduce it exactly: a phase of many
    turns times the section count would lose its digits.

    Raises where the phase across one section overflows, and for more than
    ``_MAX_PHASE_SECTIONS`` sections, whose phase has no float value."""
    theta = _phase_delay(design, f) * f
    if not design.sections <= _MAX_PHASE_SECTIONS:
        raise DomainError(f"the phase across {design.sections} sections exceeds the float range")
    theta = np.arctan2(np.sin(theta), np.cos(theta))
    return math.pi - np.remainder(design.sections * theta + math.pi, 2.0 * math.pi)


def model_label(design: FilterDesign) -> str:
    """The label of the design's modelled response, as its tables and
    Touchstone headers carry it."""
    return f"cascade model, {design.sections} sections"


def filter_response(design: FilterDesign, grid: FrequencyGrid) -> SParamTable:
    """Cascaded response of all sections over a frequency grid.

    The sections are matched (s11 = 0), so |s21| is 10**(-loss / 20) of
    the :func:`cascade_loss_db`, and its phase :func:`transmission_phase`.
    """
    loss = cascade_loss_db(design, grid)
    s21 = 10.0 ** (loss / -20.0) * np.exp(1j * transmission_phase(design, grid.f))
    s11 = np.zeros_like(s21)
    return SParamTable(
        grid,
        Provenance.MODEL,
        model_label(design),
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
    att = _section_loss_db(design, corner_frequency(design), head)
    if not all_true(type(head) is float, att <= _NO_POWER_DB):
        raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    if bad is not None:
        got = np.reshape(freqs, -1)[bad].item()
        raise DomainError(f"frequency grid points must be finite and > 0 (got {got!r})")
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
