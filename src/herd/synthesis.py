"""Inverse design: from performance targets to a full filter geometry.

The procedure decouples cleanly: coax radii from the impedance and
single-mode limit, aperture width from the stopband onset, section count from
the attenuation target, aperture depth from the passband loss budget.
"""

from __future__ import annotations

import math

from .cascade import section_attenuation_db
from .constants import C0
from .errors import DomainError, InfeasibleDesignError
from .leakage import inband_transmission, min_depth_for_budget
from .model import DEFAULT_APERTURES_PER_SECTION, DEFAULT_STOPBAND_KAPPA, FilterDesign, FrequencyGrid
from .model import Field, KeyValueFormat, Material, RectAperture, count_violations
from .model import build_part, positive_violations, raise_violations, value_class, with_aperture
from .modes import corner_frequency, solve_inner_radius

# The aperture rings sit on the flats of an octagonal outer body.
OCTAGON_FACES = 8

# Height/width proportion carried over from the stock design.
HEIGHT_TO_WIDTH = 1.25

# Relative padding applied to the synthesized aperture depth so the forward
# loss check lands strictly inside the budget instead of on its boundary.
_DEPTH_SAFETY = 1e-9

# Points of verify's stopband grid, from the stopband start to twice that.
_VERIFY_POINTS = 101


@value_class
class DesignSpec:
    """Performance targets driving a synthesis run. Building one raises
    :class:`DomainError` with every violation :func:`validate_spec` finds."""

    z0: float
    f_passband_top: float
    passband_il_budget_db: float
    f_stopband_start: float
    stopband_min_attenuation_db: float
    aperture_fill: Material
    coax_fill: Material
    apertures_per_section: int = DEFAULT_APERTURES_PER_SECTION

    def __post_init__(self):
        raise_violations(validate_spec(self))


@value_class
class SynthesisReport:
    design: FilterDesign
    margin_passband_db: float
    margin_stopband_db: float
    total_length: float


def octagon_face_width(r_outer: float) -> float:
    """Flat width of a regular octagon with apothem ``r_outer``."""
    return 2.0 * r_outer * math.tan(math.pi / OCTAGON_FACES)


def per_section_attenuation_db(apertures_per_section: int) -> float:
    """Stopband attenuation of one section at ``DEFAULT_STOPBAND_KAPPA`` [dB]."""
    return -10.0 * apertures_per_section * math.log10(1.0 - DEFAULT_STOPBAND_KAPPA)


def validate_spec(spec: DesignSpec) -> list[str]:
    """One message per violated spec invariant; the fills checked themselves
    when they were built. A stopband start at or below the passband top is
    valid: :func:`synthesize` reports it as infeasible."""
    out = [
        *positive_violations("z0", spec.z0),
        *positive_violations("f_passband_top", spec.f_passband_top),
        *positive_violations("passband_il_budget_db", spec.passband_il_budget_db),
        *positive_violations("f_stopband_start", spec.f_stopband_start),
        *positive_violations("stopband_min_attenuation_db", spec.stopband_min_attenuation_db),
    ]
    out += count_violations("apertures_per_section", spec.apertures_per_section)
    return out


def synthesize(spec: DesignSpec) -> SynthesisReport:
    """Produce a design meeting ``spec``, with forward-model margins.

    The coax single-mode limit is placed at the passband top.
    """
    if spec.f_stopband_start <= spec.f_passband_top:
        raise InfeasibleDesignError(
            "binding constraint: f_stopband_start must exceed f_passband_top "
            f"(got {spec.f_stopband_start!r} vs {spec.f_passband_top!r})"
        )

    coax = solve_inner_radius(spec.z0, spec.f_passband_top, spec.coax_fill)

    width = C0 / (2.0 * spec.f_stopband_start * spec.aperture_fill.refractive_index)
    face = octagon_face_width(coax.r_outer)
    if width >= face:
        raise InfeasibleDesignError(
            f"binding constraint: aperture width {width!r} m does not fit the "
            f"{face!r} m face of the {OCTAGON_FACES}-sided outer body"
        )

    sections = math.ceil(
        spec.stopband_min_attenuation_db / per_section_attenuation_db(spec.apertures_per_section)
    )

    draft = FilterDesign(
        coax=coax,
        coax_fill=spec.coax_fill,
        aperture=build_part(
            "aperture",
            RectAperture,
            {"width_a": width, "height_b": HEIGHT_TO_WIDTH * width, "depth_d": 1.0},
        ),
        aperture_fill=spec.aperture_fill,
        sections=sections,
        apertures_per_section=spec.apertures_per_section,
    )
    depth = min_depth_for_budget(draft, spec.f_passband_top, spec.passband_il_budget_db)
    # A budget so large that the field it lets through rounds to 1 gives a
    # depth of 0, which no aperture has.
    if depth == 0.0:
        raise DomainError(
            f"passband_il_budget_db = {spec.passband_il_budget_db!r} dB is too large: the aperture "
            f"depth that meets it at f_passband_top = {spec.f_passband_top!r} Hz rounds to 0 m, "
            "so no depth follows from it"
        )
    if depth == math.inf:
        raise DomainError(
            f"f_passband_top = {spec.f_passband_top!r} Hz and f_stopband_start = "
            f"{spec.f_stopband_start!r} Hz are too small: the aperture mode's decay constant "
            "between them underflows to 0, so no aperture depth meets passband_il_budget_db"
        )
    design = with_aperture(draft, depth_d=depth * (1.0 + _DEPTH_SAFETY))
    return verify(design, spec)


def verify(design: FilterDesign, spec: DesignSpec) -> SynthesisReport:
    """Forward-model margins of a design against a spec, each read at the
    frequency that binds it. Negative margins are reported, never raised.

    In-band loss rises strictly toward the aperture corner, so the worst
    passband loss is the loss at ``f_passband_top``; a top at or above the
    corner counts as infinite loss. Matched sections attenuate ``sections``
    times as much as one, so the least stopband attenuation is ``sections``
    times the least per-section attenuation over a grid from
    ``f_stopband_start`` to twice that, read at the grid point where it is
    least. For a synthesized design, whose corner is ``f_stopband_start``,
    that figure is the flat per-section drain, which the blend reaches a
    fraction of the way up the grid.
    """
    top = spec.f_passband_top
    if top >= corner_frequency(design):
        worst_il = math.inf
    else:
        worst_il = inband_transmission(design, top).insertion_loss_db
    margin_passband = spec.passband_il_budget_db - worst_il

    stop_grid = FrequencyGrid.linear(spec.f_stopband_start, 2.0 * spec.f_stopband_start, _VERIFY_POINTS)
    least_attenuation = design.sections * float(section_attenuation_db(design, stop_grid.f).min())
    margin_stopband = least_attenuation - spec.stopband_min_attenuation_db

    return SynthesisReport(
        design=design,
        margin_passband_db=margin_passband,
        margin_stopband_db=margin_stopband,
        total_length=design.sections * design.section_pitch,
    )


# --- spec files --------------------------------------------------------------

# Same grammar as design files. The five targets are required; the fills
# default to air.
SPEC_FILE = KeyValueFormat(
    "spec",
    DesignSpec,
    {"aperture_fill": Material, "coax_fill": Material},
    (
        Field("z0_ohm", "z0", float),
        Field("f_passband_top_hz", "f_passband_top", float),
        Field("passband_il_budget_db", "passband_il_budget_db", float),
        Field("f_stopband_start_hz", "f_stopband_start", float),
        Field("stopband_min_attenuation_db", "stopband_min_attenuation_db", float),
        Field("aperture_eps_r", "aperture_fill.eps_r", float, 1.0),
        Field("coax_eps_r", "coax_fill.eps_r", float, 1.0),
        Field("apertures_per_section", "apertures_per_section", int, DEFAULT_APERTURES_PER_SECTION),
    ),
)


def loads_design_spec(text: str) -> DesignSpec:
    """Parse a spec file into a validated :class:`DesignSpec`."""
    return SPEC_FILE.loads(text)


def dumps_design_spec(spec: DesignSpec, header: str = "") -> str:
    """Serialize a spec (exact float round-trip)."""
    return SPEC_FILE.dumps(spec, header)
