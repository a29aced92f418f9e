"""Below-cutoff leakage model: evanescent tunneling through each aperture and
the additive multi-aperture transmission loss.

Valid strictly below the aperture corner frequency; the stopband is handled
by :mod:`herd.cascade`. Every function takes one frequency (a float, giving
floats back) or an array of frequencies (giving arrays back).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C0
from .errors import DomainError, InfeasibleDesignError
from .model import FilterDesign, positive_violations, raise_violations, swept_corners
from .model import value_class, with_aperture
from .modes import corner_frequency

# dB per unit of the natural log of a power ratio: 10 / ln 10.
DB_PER_LN = 10.0 / math.log(10.0)

# The smallest normal float.
_TINY = 2.0**-1022


@value_class
class InbandLossBreakdown:
    """In-band loss over all apertures [dB]: a float for one frequency and an
    array for an array of them."""

    insertion_loss_db: float | np.ndarray


def evanescent_gamma(design: FilterDesign, fc, f):
    """Attenuation constant of the dominant aperture mode [Np/m] at each
    frequency of ``f``, with ``fc`` the design's :func:`corner_frequency`
    (a float, or an array of corners for one ``f``):
    gamma = 2 pi n / c0 * sqrt(max(fc - f, 0) (fc + f)), which is 0 at and
    above the corner. Clamping fc - f before the product keeps it from
    overflowing at frequencies far above the corner.

    A float corner in (0, 2**500) Hz with one finite positive float
    frequency is worked in Python floats, with ``max`` and ``math.sqrt``,
    and gamma is returned as the ``np.float64`` that ``np.sqrt`` would give,
    so the arithmetic that follows warns as it did. The bits are those of the
    array path: ``-`` and ``*`` round as numpy's do, ``sqrt`` is correctly
    rounded in both, and there the product is finite and the clamp meets
    neither a NaN nor a signed zero."""
    scale = 2.0 * math.pi * design.aperture_fill.refractive_index / C0
    if type(fc) is float and fc < 2.0**500:
        one = 0.0 < fc and type(f) is float and 0.0 < f < math.inf
        sqrt, maximum = (_float64_sqrt, max) if one else (np.sqrt, np.maximum)
        return scale * sqrt(maximum(fc - f, 0.0) * (fc + f))
    # Past about 1e154 Hz the product overflows. From 2**500 Hz up, fc and f
    # are first scaled by 2**-513, which keeps the product of any float
    # corner finite and normal. Scaling by a power of two is exact, so a
    # corner whose product was finite keeps the bits of the path above.
    shrink = np.where(fc < 2.0**500, 1.0, 2.0**-513)
    fc, f = fc * shrink, f * shrink
    # With a large refractive index the decay constant of such a corner can
    # exceed the float range: gamma is inf, and the loss 0 dB, by design.
    with np.errstate(over="ignore"):
        return scale * (np.sqrt(np.maximum(fc - f, 0.0) * (fc + f)) / shrink)


def _float64_sqrt(x: float) -> np.float64:
    """``math.sqrt`` of a float as an ``np.float64``: ``np.sqrt``'s value
    and type, without the cost of a ufunc call."""
    return np.float64(math.sqrt(x))


def decay_amplitude(gamma, depth, one: bool):
    """exp(-gamma depth), for one value (``one``) or an array: 0 where the
    product overflows. One value is multiplied in Python floats, which round
    as numpy's do and do not warn; an array with numpy's warning off."""
    if one:
        return np.exp(float(gamma) * -depth)
    with np.errstate(over="ignore"):
        return np.exp(gamma * -depth)


def all_true(one: bool, values) -> bool:
    """Whether every value is true. One value is tested as it is: numpy's
    ``all()`` costs microseconds even on a scalar."""
    return bool(values) if one else bool(values.all())


def frequencies(f) -> tuple[bool, float | np.ndarray]:
    """(one, freqs): whether ``f`` is one frequency, and ``f`` as a Python
    float if it is, a float64 array if not. One frequency of any type (an
    int, a numpy scalar, a 0-d array) is taken as a Python float, which a
    ``float`` already is, so it skips ``np.asarray``."""
    if type(f) is float:
        return True, f
    freqs = np.asarray(f, dtype=float)
    if freqs.ndim == 0:
        return True, freqs.item()
    return False, freqs


def _inband(design: FilterDesign, f):
    """(one, gamma): whether ``f`` is one frequency, and
    :func:`evanescent_gamma` there, after checking that every frequency lies
    strictly between 0 and the corner; the first frequency outside is
    named."""
    fc = corner_frequency(design)
    one, freqs = frequencies(f)
    inside = (freqs > 0.0) & (freqs < fc)
    if not all_true(one, inside):
        bad = np.reshape(freqs, -1)[int(np.argmin(inside))].item()
        raise_violations(positive_violations("frequency", bad))
        raise DomainError(
            f"frequency {bad!r} Hz is at or above the aperture corner frequency "
            f"{fc!r} Hz; the in-band leakage model does not apply there"
        )
    return one, evanescent_gamma(design, fc, freqs)


def log_pass(gamma, depth, one: bool):
    """ln(1 - amp**2), amp = exp(-gamma depth): the natural log of the power
    one aperture of depth ``depth`` passes, where its mode decays by
    ``gamma`` (0 where amp is 0, -inf where gamma is 0), for one value
    (``one``) or an array.

    Where amp**2 <= 1/2 this is log1p(-amp**2), which keeps every digit of
    a small loss. Above 1/2, 1 - amp**2 would cancel, so the log is taken
    of -expm1(-2 gamma depth) instead (:func:`_log_shallow`); that happens
    only just below the corner or for a very shallow aperture. numpy runs
    the same loop for one value as for an array, so a figure has the same
    bits either way."""
    amp = decay_amplitude(gamma, depth, one)
    sq = amp * amp
    if one:
        return _log_shallow(gamma, depth) if sq > 0.5 else np.log1p(-sq)
    near = sq > 0.5
    if not near.any():
        return np.log1p(-sq)
    # log1p(-1) is -inf where gamma is 0; those rows are replaced
    with np.errstate(divide="ignore"):
        log = np.log1p(-sq)
    log[near] = _log_shallow(gamma[near], depth if np.ndim(depth) == 0 else depth[near])
    return log


def _log_shallow(gamma, depth):
    """ln(1 - exp(-2 gamma depth)) where gamma depth is small, as
    ln(-expm1(-2 gamma depth)). Below the normal float range the product
    keeps few digits or underflows to 0, and the value is ln(2 gamma depth)
    there: a sum of logs, -inf where gamma is 0."""
    with np.errstate(divide="ignore"):
        x = gamma * depth
        shallow = np.log(-np.expm1(-2.0 * x))
        tiny = x < _TINY
        if tiny.any():
            shallow = np.where(tiny, np.log(2.0 * gamma) + np.log(depth), shallow)[()]
    return shallow


def _transmission(design: FilterDesign, gamma, depth, one: bool):
    """In-band loss [dB] past all of the design's apertures, each of depth
    ``depth`` with its mode decaying by ``gamma``: -10/ln 10 times the
    aperture count times :func:`log_pass`, infinite only where gamma is 0,
    and +0, not -0, where amp is 0."""
    return (-DB_PER_LN * design.total_apertures) * log_pass(gamma, depth, one) + 0.0


def inband_transmission(design: FilterDesign, f) -> InbandLossBreakdown:
    """Total in-band transmission with loss additive over all apertures,
    worked as a sum of logs, so a loss too large for its transmission to be
    a float is still finite.
    """
    one, gamma = _inband(design, f)
    loss = _transmission(design, gamma, design.aperture.depth_d, one)
    return InbandLossBreakdown(float(loss) if one else loss)


def aperture_sweep(design: FilterDesign, field: str, values: np.ndarray, f: float):
    """(corner, loss): per value of the float64 ``values``, the
    :func:`corner_frequency` and the :func:`inband_transmission` loss at
    ``f`` [dB] of ``design`` with its aperture's ``field`` set to that
    value, as two arrays, without building the variants. The loss is NaN
    where ``f`` is at or above the corner, where the model does not apply.

    A value :func:`with_aperture` refuses raises its error, the first such
    value first, and a bad ``f`` is refused after the first value: the order
    in which building and evaluating the variants one by one finds them.
    """
    corner, ok = swept_corners(design, field, values)
    bad = np.flatnonzero(~ok)[:1].tolist()
    # with_aperture raises for a value that ok marks
    if bad == [0]:
        with_aperture(design, **{field: values[0].item()})
    raise_violations(positive_violations("frequency", f))
    if bad:
        with_aperture(design, **{field: values[bad[0]].item()})
    depth = values if field == "depth_d" else design.aperture.depth_d
    loss = _transmission(design, evanescent_gamma(design, corner, f), depth, False)
    loss[corner <= f] = math.nan
    return corner, loss


def mismatch_loss_db(return_loss_db: float) -> float:
    """Insertion loss implied by a reflection floor: -10 log10(1 - 10**(RL/10)).

    ``return_loss_db`` is negative by convention (e.g. -20 dB -> 0.044 dB).
    """
    if not (math.isfinite(return_loss_db) and return_loss_db < 0.0):
        raise DomainError(f"return loss must be finite and < 0 dB (got {return_loss_db!r})")
    return -10.0 * math.log10(1.0 - 10.0 ** (return_loss_db / 10.0))


def min_depth_for_budget(design: FilterDesign, f, budget_db: float):
    """Smallest aperture depth whose in-band loss at ``f`` stays within
    ``budget_db``; closed-form inverse of :func:`inband_transmission`.
    Infinite where the decay constant underflows to 0 (near a corner of
    1e-162 Hz and below), since no depth then meets the budget."""
    if not (math.isfinite(budget_db) and budget_db > 0.0):
        raise DomainError(f"budget must be finite and > 0 dB (got {budget_db!r})")
    one, gamma = _inband(design, f)
    # 1 - 10**(-b/10A) would cancel for a large aperture count A.
    amp_required = math.sqrt(-math.expm1(-budget_db * math.log(10.0) / (10.0 * design.total_apertures)))
    if not 0.0 < amp_required <= 1.0:
        raise InfeasibleDesignError(
            f"no aperture depth satisfies the {budget_db!r} dB budget at {f!r} Hz"
        )
    decay = -math.log(amp_required)
    if all_true(one, gamma > 0.0):
        depth = np.maximum(decay / gamma, 0.0)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            depth = np.where(gamma > 0.0, np.maximum(decay / gamma, 0.0), math.inf)
    return float(depth) if one else depth
