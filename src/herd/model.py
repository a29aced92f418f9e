"""Domain types for the leaky-coax low-pass filter toolkit.

All types are immutable value objects. Construction is permissive so that
invalid candidates can be built, inspected and reported on; :func:`validate`
is the single authority on design invariants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ParseError

# Per-aperture power fraction drained above the aperture cutoff. Calibrated so
# the stock four-section, eight-aperture design delivers the headline 60 dB at
# 70 GHz with a strictly positive margin: 1 - 10**(-60/320) = 0.350618...,
# rounded up to five decimals.
DEFAULT_STOPBAND_KAPPA = 0.35062

# Axial spacing between sections [m]. Only enters the cascade phase; magnitude
# results are pitch-independent in the default matched model.
DEFAULT_SECTION_PITCH = 0.010

DEFAULT_APERTURES_PER_SECTION = 8


@dataclass(frozen=True)
class Material:
    """Fill medium: relative permittivity/permeability and loss tangent."""

    eps_r: float
    mu_r: float = 1.0
    loss_tangent: float = 0.0

    @property
    def refractive_index(self) -> float:
        """sqrt(eps_r * mu_r), the slowing factor relative to vacuum."""
        return math.sqrt(self.eps_r * self.mu_r)


AIR = Material(eps_r=1.0)
PTFE = Material(eps_r=2.2, loss_tangent=0.0004)


@dataclass(frozen=True)
class CoaxGeometry:
    """Cylindrical coaxial line cross-section, radii in meters."""

    r_inner: float
    r_outer: float

    @property
    def ratio(self) -> float:
        return self.r_outer / self.r_inner


@dataclass(frozen=True)
class RectAperture:
    """Rectangular leaking hole: width a, height b, depth d, in meters."""

    width_a: float
    height_b: float
    depth_d: float


class DominantModeAxis(enum.Enum):
    """Aperture axis carrying the dominant coupled mode (one half-wave)."""

    WIDTH = "WIDTH"
    HEIGHT = "HEIGHT"


@dataclass(frozen=True)
class FilterDesign:
    """Complete description of a leaky-coax filter.

    A section is a ring group of apertures around the outer conductor; the
    filter repeats it ``sections`` times along the axis.
    """

    coax: CoaxGeometry
    coax_fill: Material
    aperture: RectAperture
    aperture_fill: Material
    sections: int
    apertures_per_section: int = DEFAULT_APERTURES_PER_SECTION
    section_pitch: float = DEFAULT_SECTION_PITCH
    stopband_kappa: float = DEFAULT_STOPBAND_KAPPA
    dominant_mode_axis: DominantModeAxis = DominantModeAxis.WIDTH

    @property
    def total_apertures(self) -> int:
        return self.sections * self.apertures_per_section


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, non-empty list of frequencies in Hz.

    ``f`` holds the same points as a read-only float64 array.
    """

    points: tuple[float, ...]
    f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) == 0:
            raise DomainError("frequency grid must not be empty")
        f = np.array(self.points, dtype=float)
        bad = ~(np.isfinite(f) & (f > 0.0))
        if bad.any():
            got = self.points[int(bad.argmax())]
            raise DomainError(f"frequency grid points must be finite and > 0 (got {got!r})")
        falling = ~(f[1:] > f[:-1])
        if falling.any():
            i = int(falling.argmax())
            raise DomainError(
                f"frequency grid must be strictly increasing "
                f"({self.points[i]!r} -> {self.points[i + 1]!r})"
            )
        f.flags.writeable = False
        object.__setattr__(self, "f", f)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def linear(cls, start: float, stop: float, points: int) -> "FrequencyGrid":
        if points < 2:
            raise DomainError(f"a linear grid needs at least 2 points (got {points})")
        return cls(tuple(np.linspace(start, stop, points).tolist()))

    @classmethod
    def logarithmic(cls, start: float, stop: float, points: int) -> "FrequencyGrid":
        if points < 2:
            raise DomainError(f"a logarithmic grid needs at least 2 points (got {points})")
        if start <= 0.0:
            raise DomainError("a logarithmic grid requires start > 0")
        return cls(tuple(np.geomspace(start, stop, points).tolist()))


def prototype_design() -> FilterDesign:
    """The stock four-section design: a=4 mm, b=5 mm, d=4.85 mm, PTFE slabs,
    air-filled 1.59/3.65 mm coax, eight apertures per section."""
    return FilterDesign(
        coax=CoaxGeometry(r_inner=1.59e-3, r_outer=3.65e-3),
        coax_fill=AIR,
        aperture=RectAperture(width_a=4.0e-3, height_b=5.0e-3, depth_d=4.85e-3),
        aperture_fill=PTFE,
        sections=4,
    )


def _check_material(name: str, mat: Material, out: list[str]) -> None:
    if not (math.isfinite(mat.eps_r) and mat.eps_r >= 1.0):
        out.append(f"{name}.eps_r must be finite and >= 1 (got {mat.eps_r!r})")
    if not (math.isfinite(mat.mu_r) and mat.mu_r >= 1.0):
        out.append(f"{name}.mu_r must be finite and >= 1 (got {mat.mu_r!r})")
    if not (math.isfinite(mat.loss_tangent) and mat.loss_tangent >= 0.0):
        out.append(f"{name}.loss_tangent must be finite and >= 0 (got {mat.loss_tangent!r})")


def validate(design: FilterDesign) -> list[str]:
    """Check every design invariant; return one message per violation.

    An empty list means the design is valid. Nothing is raised: violations
    are the return value.
    """
    out: list[str] = []
    _check_material("coax_fill", design.coax_fill, out)
    _check_material("aperture_fill", design.aperture_fill, out)

    coax = design.coax
    if not (math.isfinite(coax.r_inner) and coax.r_inner > 0.0):
        out.append(f"coax.r_inner must be finite and > 0 (got {coax.r_inner!r})")
    if not (math.isfinite(coax.r_outer) and coax.r_outer > coax.r_inner):
        out.append(
            "coax.r_outer must exceed coax.r_inner "
            f"(got r_inner={coax.r_inner!r}, r_outer={coax.r_outer!r})"
        )

    ap = design.aperture
    for dim, value in (("width_a", ap.width_a), ("height_b", ap.height_b), ("depth_d", ap.depth_d)):
        if not (math.isfinite(value) and value > 0.0):
            out.append(f"aperture.{dim} must be finite and > 0 (got {value!r})")

    if design.sections < 1:
        out.append(f"sections must be >= 1 (got {design.sections!r})")
    if design.apertures_per_section < 1:
        out.append(f"apertures_per_section must be >= 1 (got {design.apertures_per_section!r})")
    if not (math.isfinite(design.section_pitch) and design.section_pitch > 0.0):
        out.append(f"section_pitch must be finite and > 0 (got {design.section_pitch!r})")
    if not (math.isfinite(design.stopband_kappa) and 0.0 < design.stopband_kappa < 1.0):
        out.append(f"stopband_kappa must lie strictly between 0 and 1 (got {design.stopband_kappa!r})")
    if not isinstance(design.dominant_mode_axis, DominantModeAxis):
        out.append(f"dominant_mode_axis must be a DominantModeAxis (got {design.dominant_mode_axis!r})")
    return out


# --- design files -----------------------------------------------------------
#
# Flat key-value text, one `key = value` per line, `#` comments. Geometry keys
# are mandatory; the rest fall back to toolkit defaults.

DESIGN_KEYS = (
    "a_m",
    "b_m",
    "d_m",
    "r_inner_m",
    "r_outer_m",
    "coax_eps_r",
    "aperture_eps_r",
    "apertures_per_section",
    "sections",
    "section_pitch_m",
    "stopband_kappa",
    "dominant_mode_axis",
)

_REQUIRED_DESIGN_KEYS = ("a_m", "b_m", "d_m", "r_inner_m", "r_outer_m", "sections")


def parse_key_values(text: str, allowed: tuple[str, ...]) -> dict[str, tuple[str, int]]:
    """Tokenize `key = value` lines; returns key -> (raw value, line number)."""
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if not value:
            raise ParseError(f"missing value for key {key!r}", line=lineno)
        out[key] = (value, lineno)
    return out


def _take_float(raw: dict[str, tuple[str, int]], key: str, default: float | None = None) -> float:
    if key not in raw:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    value, lineno = raw[key]
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"key {key!r} expects a number, got {value!r}", line=lineno) from None


def _take_int(raw: dict[str, tuple[str, int]], key: str, default: int | None = None) -> int:
    if key not in raw:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    value, lineno = raw[key]
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"key {key!r} expects an integer, got {value!r}", line=lineno) from None


def loads_design(text: str) -> FilterDesign:
    """Parse a design file into a validated :class:`FilterDesign`."""
    raw = parse_key_values(text, DESIGN_KEYS)
    for key in _REQUIRED_DESIGN_KEYS:
        if key not in raw:
            raise ParseError(f"missing required key {key!r}")

    axis = DominantModeAxis.WIDTH
    if "dominant_mode_axis" in raw:
        value, lineno = raw["dominant_mode_axis"]
        try:
            axis = DominantModeAxis[value.upper()]
        except KeyError:
            raise ParseError(
                f"dominant_mode_axis must be WIDTH or HEIGHT, got {value!r}", line=lineno
            ) from None

    design = FilterDesign(
        coax=CoaxGeometry(
            r_inner=_take_float(raw, "r_inner_m"),
            r_outer=_take_float(raw, "r_outer_m"),
        ),
        coax_fill=Material(eps_r=_take_float(raw, "coax_eps_r", 1.0)),
        aperture=RectAperture(
            width_a=_take_float(raw, "a_m"),
            height_b=_take_float(raw, "b_m"),
            depth_d=_take_float(raw, "d_m"),
        ),
        aperture_fill=Material(eps_r=_take_float(raw, "aperture_eps_r", 1.0)),
        sections=_take_int(raw, "sections"),
        apertures_per_section=_take_int(raw, "apertures_per_section", DEFAULT_APERTURES_PER_SECTION),
        section_pitch=_take_float(raw, "section_pitch_m", DEFAULT_SECTION_PITCH),
        stopband_kappa=_take_float(raw, "stopband_kappa", DEFAULT_STOPBAND_KAPPA),
        dominant_mode_axis=axis,
    )
    violations = validate(design)
    if violations:
        raise ParseError("invalid design: " + "; ".join(violations))
    return design


def dumps_design(design: FilterDesign, header: str = "") -> str:
    """Serialize a design to the key-value file format (exact float round-trip)."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines += [
        f"a_m = {design.aperture.width_a!r}",
        f"b_m = {design.aperture.height_b!r}",
        f"d_m = {design.aperture.depth_d!r}",
        f"r_inner_m = {design.coax.r_inner!r}",
        f"r_outer_m = {design.coax.r_outer!r}",
        f"coax_eps_r = {design.coax_fill.eps_r!r}",
        f"aperture_eps_r = {design.aperture_fill.eps_r!r}",
        f"apertures_per_section = {design.apertures_per_section}",
        f"sections = {design.sections}",
        f"section_pitch_m = {design.section_pitch!r}",
        f"stopband_kappa = {design.stopband_kappa!r}",
        f"dominant_mode_axis = {design.dominant_mode_axis.value}",
    ]
    return "\n".join(lines) + "\n"


def with_aperture(design: FilterDesign, **dims: float) -> FilterDesign:
    """Copy a design with one or more aperture dimensions replaced."""
    return replace(design, aperture=replace(design.aperture, **dims))
