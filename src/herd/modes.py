"""Closed-form mode arithmetic for the coaxial line and rectangular apertures.

Pure functions of immutable inputs; everything is SI (Hz, m, Np/m). The
parts they take checked their values when they were built, so only the
plain numbers (an impedance, a frequency) are checked here.
"""

from __future__ import annotations

import math
import sys

from .constants import C0, ETA0
from .errors import DomainError
from .model import CoaxGeometry, FilterDesign, Material, RectAperture
from .model import dominant_corner, dominant_side, positive_violations, raise_violations, value_class

# Largest number of (m, n) candidates mode_chart examines, (m_max+1)(n_max+1);
# on the stock design this charts up to about 2.3e13 Hz.
MODE_CHART_MAX_CANDIDATES = 1_000_000

# Largest exponent math.exp takes without overflowing.
_MAX_EXP = math.log(sys.float_info.max)

# Relative error that solve_inner_radius may leave in the impedance and the
# single-mode limit of the radii it returns. Radii that carry the inputs at
# all carry them to a few 1e-16; the solve refuses the rest.
SOLVE_RTOL = 1e-12


@value_class
class ModeEntry:
    """TE(m,n) mode (m along the width, n along the height) and its cutoff."""

    m: int
    n: int
    cutoff_hz: float


def coax_char_impedance(geom: CoaxGeometry, fill: Material) -> float:
    """TEM characteristic impedance of a cylindrical coax [ohm].

    Z0 = eta0/(2 pi) * sqrt(1/eps_r) * ln(r_outer/r_inner)
    """
    return ETA0 / (2.0 * math.pi) * math.sqrt(1.0 / fill.eps_r) * math.log(geom.ratio)


def coax_ratio_for_impedance(z0: float, fill: Material) -> float:
    """Radius ratio r_outer/r_inner giving impedance ``z0`` (inverse of
    :func:`coax_char_impedance`)."""
    raise_violations(positive_violations("z0", z0))
    exponent = 2.0 * math.pi * z0 / (ETA0 * math.sqrt(1.0 / fill.eps_r))
    if not exponent <= _MAX_EXP:
        raise DomainError(
            f"z0 = {z0!r} ohm needs a radius ratio r_outer/r_inner beyond the float range"
        )
    return math.exp(exponent)


def coax_first_higher_mode_cutoff(geom: CoaxGeometry, fill: Material) -> float:
    """Onset of the lowest non-TEM coax mode, from the mean-circumference
    approximation lambda = pi (r_outer + r_inner) [Hz]."""
    return C0 / (fill.refractive_index * math.pi * (geom.r_outer + geom.r_inner))


def solve_inner_radius(z0: float, f_single_mode: float, fill: Material) -> CoaxGeometry:
    """Coax radii matching impedance ``z0`` with the first higher mode placed
    at ``f_single_mode``, both to :data:`SOLVE_RTOL`.

    Radii that over- or underflow, or whose ratio or sum rounds the inputs
    away (a ratio within about 1e-4 of 1), are refused with a
    :class:`DomainError` naming the inputs.
    """
    raise_violations(positive_violations("f_single_mode", f_single_mode))
    ratio = coax_ratio_for_impedance(z0, fill)
    r_inner = C0 / (fill.refractive_index * f_single_mode * math.pi * (1.0 + ratio))
    r_outer = r_inner * ratio
    if 0.0 < r_inner < r_outer < math.inf:
        geom = CoaxGeometry(r_inner=r_inner, r_outer=r_outer)
        z0_error = coax_char_impedance(geom, fill) - z0
        f_error = coax_first_higher_mode_cutoff(geom, fill) - f_single_mode
        if abs(z0_error) <= SOLVE_RTOL * z0 and abs(f_error) <= SOLVE_RTOL * f_single_mode:
            return geom
    raise DomainError(
        f"no float coax radii give z0 = {z0!r} ohm with the single-mode limit "
        f"at f_single_mode = {f_single_mode!r} Hz"
    )


def mode_chart(ap: RectAperture, fill: Material, f_max: float) -> list[ModeEntry]:
    """All TE modes with cutoff <= ``f_max``, sorted ascending by cutoff."""
    raise_violations(positive_violations("f_max", f_max))
    # Index bound guarantees completeness: TE(m,0) cutoff exceeds f_max once
    # m > 2 f_max a sqrt(eps_r) / c0, and likewise along the height. The
    # min() keeps an overflowing bound finite until the size check rejects it.
    m_top = 2.0 * f_max * ap.width_a * fill.refractive_index / C0
    n_top = 2.0 * f_max * ap.height_b * fill.refractive_index / C0
    m_max = math.ceil(min(m_top, MODE_CHART_MAX_CANDIDATES)) + 1
    n_max = math.ceil(min(n_top, MODE_CHART_MAX_CANDIDATES)) + 1
    if (m_max + 1) * (n_max + 1) > MODE_CHART_MAX_CANDIDATES:
        raise DomainError(
            f"f_max = {f_max!r} Hz needs more than {MODE_CHART_MAX_CANDIDATES} mode "
            "candidates; chart a lower f_max"
        )
    scale = C0 / (2.0 * fill.refractive_index)
    entries = []
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            if m == 0 and n == 0:
                continue
            fc = scale * math.hypot(m / ap.width_a, n / ap.height_b)
            if fc <= f_max:
                entries.append(ModeEntry(m, n, fc))
    entries.sort(key=lambda e: (e.cutoff_hz, e.m, e.n))
    return entries


def corner_frequency(design: FilterDesign) -> float:
    """Stopband onset: cutoff of the dominant aperture mode in the fill [Hz].

    With the default WIDTH axis this is c0 / (2 a sqrt(eps_r)); the
    aperture height does not enter.
    """
    side = float(getattr(design.aperture, dominant_side(design)))
    return dominant_corner(design.aperture_fill, side)
