"""Below-cutoff leakage model: evanescent tunneling through each aperture and
the additive multi-aperture transmission loss.

Valid strictly below the aperture corner frequency; the stopband is handled
by :mod:`herd.cascade`. Every function takes one frequency (a float, giving
floats back) or an array of frequencies (giving arrays back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .errors import DomainError, InfeasibleDesignError
from .model import FilterDesign
from .modes import corner_frequency


@dataclass(frozen=True)
class InbandLossBreakdown:
    """In-band operating points of the leakage model.

    ``per_aperture_leak_power`` is |F|^2, the power fraction lost to a single
    aperture; ``total_transmission`` is (1 - |F|^2)**A over all A apertures.
    Each field is a float for one frequency and an array for an array of them.
    """

    frequency: float | np.ndarray
    per_aperture_leak_power: float | np.ndarray
    total_transmission: float | np.ndarray
    insertion_loss_db: float | np.ndarray


def evanescent_gamma(design: FilterDesign, fc: float, f: np.ndarray) -> np.ndarray:
    """Attenuation constant of the dominant aperture mode [Np/m] at each
    frequency of ``f``, with ``fc`` the design's :func:`corner_frequency`:
    gamma = 2 pi n / c0 * sqrt(max(fc - f, 0) (fc + f)), which is 0 at and
    above the corner. Clamping fc - f before the product keeps it from
    overflowing at frequencies far above the corner."""
    scale = 2.0 * math.pi * design.aperture_fill.refractive_index / C0
    return scale * np.sqrt(np.maximum(fc - f, 0.0) * (fc + f))


def _all(one: bool, values) -> bool:
    """Whether every value is true. One value is tested as it is: numpy's
    ``all()`` costs microseconds even on a scalar."""
    return bool(values) if one else bool(values.all())


def _inband(design: FilterDesign, f):
    """(one, freqs, gamma): whether ``f`` is one frequency, ``f`` as a float
    or a float64 array, and :func:`evanescent_gamma` there, after checking
    that every frequency lies strictly between 0 and the corner; the first
    frequency outside is named."""
    fc = corner_frequency(design)
    freqs = np.asarray(f, dtype=float)
    one = freqs.ndim == 0
    if one:
        freqs = freqs.item()
    inside = (freqs > 0.0) & (freqs < fc)
    if not _all(one, inside):
        bad = np.reshape(freqs, -1)[int(np.argmin(inside))].item()
        if not (math.isfinite(bad) and bad > 0.0):
            raise DomainError(f"frequency must be finite and > 0 (got {bad!r})")
        raise DomainError(
            f"frequency {bad!r} Hz is at or above the aperture corner frequency "
            f"{fc!r} Hz; the in-band leakage model does not apply there"
        )
    return one, freqs, evanescent_gamma(design, fc, freqs)


def evanescent_amplitude(design: FilterDesign, f):
    """Field amplitude F = exp(-gamma d) surviving one aperture depth."""
    one, _, gamma = _inband(design, f)
    amp = np.exp(gamma * -design.aperture.depth_d)
    return float(amp) if one else amp


def inband_transmission(design: FilterDesign, f) -> InbandLossBreakdown:
    """Total in-band transmission with loss additive over all apertures.

    A transmission that underflows to 0 is an infinite loss.
    """
    one, freqs, gamma = _inband(design, f)
    amp = np.exp(gamma * -design.aperture.depth_d)
    leak = amp * amp
    total = (1.0 - leak) ** design.total_apertures
    if _all(one, total):
        loss = -10.0 * np.log10(total)
    else:
        with np.errstate(divide="ignore"):
            loss = -10.0 * np.log10(total)
    if one:
        leak, total, loss = float(leak), float(total), float(loss)
    return InbandLossBreakdown(
        frequency=freqs, per_aperture_leak_power=leak, total_transmission=total, insertion_loss_db=loss
    )


def mismatch_loss_db(return_loss_db: float) -> float:
    """Insertion loss implied by a reflection floor: -10 log10(1 - 10**(RL/10)).

    ``return_loss_db`` is negative by convention (e.g. -20 dB -> 0.044 dB).
    """
    if not (math.isfinite(return_loss_db) and return_loss_db < 0.0):
        raise DomainError(f"return loss must be finite and < 0 dB (got {return_loss_db!r})")
    return -10.0 * math.log10(1.0 - 10.0 ** (return_loss_db / 10.0))


def min_depth_for_budget(design: FilterDesign, f, budget_db: float):
    """Smallest aperture depth whose in-band loss at ``f`` stays within
    ``budget_db``; closed-form inverse of :func:`inband_transmission`."""
    if not (math.isfinite(budget_db) and budget_db > 0.0):
        raise DomainError(f"budget must be finite and > 0 dB (got {budget_db!r})")
    one, _, gamma = _inband(design, f)
    amp_required = math.sqrt(1.0 - 10.0 ** (-budget_db / (10.0 * design.total_apertures)))
    if not 0.0 < amp_required <= 1.0:
        raise InfeasibleDesignError(
            f"no aperture depth satisfies the {budget_db!r} dB budget at {f!r} Hz"
        )
    depth = np.maximum(-math.log(amp_required) / gamma, 0.0)
    return float(depth) if one else depth
