"""Inverse design: from performance targets to a full filter geometry.

The procedure decouples cleanly: coax radii from the impedance and
single-mode limit, aperture width from the stopband onset, section count from
the attenuation target, aperture depth from the passband loss budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cascade import filter_response
from .constants import C0, ELEMENTARY_CHARGE, PLANCK_H
from .errors import DomainError, InfeasibleDesignError, ParseError
from .leakage import inband_transmission, min_depth_for_budget
from .model import (
    DEFAULT_STOPBAND_KAPPA,
    FilterDesign,
    FrequencyGrid,
    Material,
    RectAperture,
    _take_float,
    _take_int,
    parse_key_values,
    with_aperture,
)
from .modes import corner_frequency, solve_inner_radius
from .tsio import insertion_loss_db

# The aperture rings sit on the flats of an octagonal outer body.
OCTAGON_FACES = 8

# Height/width proportion carried over from the stock design.
HEIGHT_TO_WIDTH = 1.25

# Relative padding applied to the synthesized aperture depth so the forward
# loss check lands strictly inside the budget instead of on its boundary.
_DEPTH_SAFETY = 1e-9


@dataclass(frozen=True)
class DesignSpec:
    """Performance targets driving a synthesis run."""

    z0: float
    f_passband_top: float
    passband_il_budget_db: float
    f_stopband_start: float
    stopband_min_attenuation_db: float
    aperture_fill: Material
    coax_fill: Material
    apertures_per_section: int = 8


@dataclass(frozen=True)
class SynthesisReport:
    design: FilterDesign
    margin_passband_db: float
    margin_stopband_db: float
    total_length: float


def pair_breaking_frequency(gap_energy_ev: float) -> float:
    """Photon frequency matching twice a superconducting gap energy [Hz].

    Radiation above this frequency can break Cooper pairs, which is what the
    stopband is there to reject. f = 2 * gap / h, gap given in eV.
    """
    if not (math.isfinite(gap_energy_ev) and gap_energy_ev > 0.0):
        raise DomainError(f"gap energy must be finite and > 0 eV (got {gap_energy_ev!r})")
    return 2.0 * gap_energy_ev * ELEMENTARY_CHARGE / PLANCK_H


def octagon_face_width(r_outer: float, faces: int = OCTAGON_FACES) -> float:
    """Flat width of a regular polygon with apothem ``r_outer``."""
    return 2.0 * r_outer * math.tan(math.pi / faces)


def per_section_attenuation_db(
    apertures_per_section: int, kappa: float = DEFAULT_STOPBAND_KAPPA
) -> float:
    """Stopband attenuation of one section at drain fraction ``kappa`` [dB]."""
    return -10.0 * apertures_per_section * math.log10(1.0 - kappa)


def synthesize(spec: DesignSpec, margin_factor: float = 1.0, faces: int = OCTAGON_FACES) -> SynthesisReport:
    """Produce a design meeting ``spec``, with forward-model margins.

    ``margin_factor`` scales where the coax single-mode limit is placed
    relative to the passband top (1.0 puts it exactly there).
    """
    if not (math.isfinite(spec.f_stopband_start) and spec.f_stopband_start > spec.f_passband_top):
        raise InfeasibleDesignError(
            "binding constraint: f_stopband_start must exceed f_passband_top "
            f"(got {spec.f_stopband_start!r} vs {spec.f_passband_top!r})"
        )
    if spec.apertures_per_section < 1:
        raise DomainError(f"apertures_per_section must be >= 1 (got {spec.apertures_per_section!r})")
    if not (math.isfinite(spec.stopband_min_attenuation_db) and spec.stopband_min_attenuation_db > 0.0):
        raise DomainError(
            f"stopband attenuation target must be > 0 dB (got {spec.stopband_min_attenuation_db!r})"
        )

    coax = solve_inner_radius(spec.z0, spec.f_passband_top * margin_factor, spec.coax_fill)

    width = C0 / (2.0 * spec.f_stopband_start * spec.aperture_fill.refractive_index)
    face = octagon_face_width(coax.r_outer, faces)
    if width >= face:
        raise InfeasibleDesignError(
            f"binding constraint: aperture width {width!r} m does not fit the "
            f"{face!r} m face of the {faces}-sided outer body"
        )

    sections = math.ceil(
        spec.stopband_min_attenuation_db / per_section_attenuation_db(spec.apertures_per_section)
    )

    draft = FilterDesign(
        coax=coax,
        coax_fill=spec.coax_fill,
        aperture=RectAperture(width_a=width, height_b=HEIGHT_TO_WIDTH * width, depth_d=1.0),
        aperture_fill=spec.aperture_fill,
        sections=sections,
        apertures_per_section=spec.apertures_per_section,
    )
    depth = min_depth_for_budget(draft, spec.f_passband_top, spec.passband_il_budget_db)
    design = with_aperture(draft, depth_d=depth * (1.0 + _DEPTH_SAFETY))
    return verify(design, spec)


def verify(design: FilterDesign, spec: DesignSpec, points: int = 101) -> SynthesisReport:
    """Forward-model margins of a design against a spec.

    Negative margins are reported, never raised. Passband points at or above
    the aperture corner count as infinite loss.
    """
    fc = corner_frequency(design)

    worst_il = 0.0
    for f in FrequencyGrid.linear(spec.f_passband_top / points, spec.f_passband_top, points):
        if f >= fc:
            worst_il = math.inf
            break
        worst_il = max(worst_il, inband_transmission(design, f).insertion_loss_db)
    margin_passband = spec.passband_il_budget_db - worst_il

    stop_grid = FrequencyGrid.linear(spec.f_stopband_start, 2.0 * spec.f_stopband_start, points)
    response = filter_response(design, stop_grid)
    least_attenuation = float(insertion_loss_db(response.s21).min())
    margin_stopband = least_attenuation - spec.stopband_min_attenuation_db

    return SynthesisReport(
        design=design,
        margin_passband_db=margin_passband,
        margin_stopband_db=margin_stopband,
        total_length=design.sections * design.section_pitch,
    )


# --- spec files --------------------------------------------------------------

SPEC_KEYS = (
    "z0_ohm",
    "f_passband_top_hz",
    "passband_il_budget_db",
    "f_stopband_start_hz",
    "stopband_min_attenuation_db",
    "aperture_eps_r",
    "coax_eps_r",
    "apertures_per_section",
)

_REQUIRED_SPEC_KEYS = (
    "z0_ohm",
    "f_passband_top_hz",
    "passband_il_budget_db",
    "f_stopband_start_hz",
    "stopband_min_attenuation_db",
)


def loads_design_spec(text: str) -> DesignSpec:
    """Parse a spec file (same key-value grammar as design files)."""
    raw = parse_key_values(text, SPEC_KEYS)
    for key in _REQUIRED_SPEC_KEYS:
        if key not in raw:
            raise ParseError(f"missing required key {key!r}")
    return DesignSpec(
        z0=_take_float(raw, "z0_ohm"),
        f_passband_top=_take_float(raw, "f_passband_top_hz"),
        passband_il_budget_db=_take_float(raw, "passband_il_budget_db"),
        f_stopband_start=_take_float(raw, "f_stopband_start_hz"),
        stopband_min_attenuation_db=_take_float(raw, "stopband_min_attenuation_db"),
        aperture_fill=Material(eps_r=_take_float(raw, "aperture_eps_r", 1.0)),
        coax_fill=Material(eps_r=_take_float(raw, "coax_eps_r", 1.0)),
        apertures_per_section=_take_int(raw, "apertures_per_section", 8),
    )


def dumps_design_spec(spec: DesignSpec, header: str = "") -> str:
    lines = []
    if header:
        lines.append(f"# {header}")
    lines += [
        f"z0_ohm = {spec.z0!r}",
        f"f_passband_top_hz = {spec.f_passband_top!r}",
        f"passband_il_budget_db = {spec.passband_il_budget_db!r}",
        f"f_stopband_start_hz = {spec.f_stopband_start!r}",
        f"stopband_min_attenuation_db = {spec.stopband_min_attenuation_db!r}",
        f"aperture_eps_r = {spec.aperture_fill.eps_r!r}",
        f"coax_eps_r = {spec.coax_fill.eps_r!r}",
        f"apertures_per_section = {spec.apertures_per_section}",
    ]
    return "\n".join(lines) + "\n"
