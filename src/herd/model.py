"""Domain types for the leaky-coax low-pass filter toolkit.

All types are immutable value objects. Construction is permissive so that
invalid candidates can be built, inspected and reported on; :func:`validate`
is the single authority on design invariants.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, replace
from operator import attrgetter

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
    """Fill medium: relative permittivity and permeability."""

    eps_r: float
    mu_r: float = 1.0

    @property
    def refractive_index(self) -> float:
        """sqrt(eps_r * mu_r), the slowing factor relative to vacuum."""
        return math.sqrt(self.eps_r * self.mu_r)


AIR = Material(eps_r=1.0)
PTFE = Material(eps_r=2.2)


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


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, non-empty list of frequencies in Hz.

    ``points`` is kept as one read-only float64 array, also named ``f``.
    Iterating yields Python floats. Grids compare by identity.
    """

    points: np.ndarray

    def __post_init__(self):
        f = np.array(self.points, dtype=float)
        if len(f) == 0:
            raise DomainError("frequency grid must not be empty")
        bad = ~(np.isfinite(f) & (f > 0.0))
        if bad.any():
            got = f[int(bad.argmax())].item()
            raise DomainError(f"frequency grid points must be finite and > 0 (got {got!r})")
        falling = ~(f[1:] > f[:-1])
        if falling.any():
            i = int(falling.argmax())
            raise DomainError(
                f"frequency grid must be strictly increasing "
                f"({f[i].item()!r} -> {f[i + 1].item()!r})"
            )
        f.flags.writeable = False
        object.__setattr__(self, "points", f)

    @property
    def f(self) -> np.ndarray:
        return self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points.tolist())

    @classmethod
    def linear(cls, start: float, stop: float, points: int) -> "FrequencyGrid":
        _check_span("linear", start, stop, points)
        return cls(np.linspace(start, stop, points))

    @classmethod
    def logarithmic(cls, start: float, stop: float, points: int) -> "FrequencyGrid":
        _check_span("logarithmic", start, stop, points)
        return cls(np.geomspace(start, stop, points))


def _check_span(spacing: str, start: float, stop: float, points: int) -> None:
    # Checked before numpy sees the bounds: geomspace raises ValueError for a
    # zero stop, and both spacings warn on an infinite one.
    if points < 2:
        raise DomainError(f"a {spacing} grid needs at least 2 points (got {points})")
    if not 0.0 < start < stop < math.inf:
        raise DomainError(
            f"a {spacing} grid needs 0 < start < stop < inf (got start={start!r}, stop={stop!r})"
        )


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


# --- invariants ---------------------------------------------------------------
#
# The part checks format nothing for a valid part: the mode functions run them
# on every call. `0.0 < x < math.inf` is false for nan and infinities.


def material_violations(name: str, mat: Material) -> list[str]:
    """Violations of a fill medium, named ``<name>.eps_r`` and ``<name>.mu_r``."""
    out = []
    if not 1.0 <= mat.eps_r < math.inf:
        out.append(f"{name}.eps_r must be finite and >= 1 (got {mat.eps_r!r})")
    if not 1.0 <= mat.mu_r < math.inf:
        out.append(f"{name}.mu_r must be finite and >= 1 (got {mat.mu_r!r})")
    return out


def coax_violations(coax: CoaxGeometry) -> list[str]:
    out = []
    if not 0.0 < coax.r_inner < math.inf:
        out.append(f"coax.r_inner must be finite and > 0 (got {coax.r_inner!r})")
    if not coax.r_inner < coax.r_outer < math.inf:
        out.append(
            "coax.r_outer must exceed coax.r_inner "
            f"(got r_inner={coax.r_inner!r}, r_outer={coax.r_outer!r})"
        )
    return out


def aperture_violations(ap: RectAperture) -> list[str]:
    out = []
    if not 0.0 < ap.width_a < math.inf:
        out.append(f"aperture.width_a must be finite and > 0 (got {ap.width_a!r})")
    if not 0.0 < ap.height_b < math.inf:
        out.append(f"aperture.height_b must be finite and > 0 (got {ap.height_b!r})")
    if not 0.0 < ap.depth_d < math.inf:
        out.append(f"aperture.depth_d must be finite and > 0 (got {ap.depth_d!r})")
    return out


def validate(design: FilterDesign) -> list[str]:
    """Check every design invariant; return one message per violation.

    An empty list means the design is valid. Nothing is raised: violations
    are the return value.
    """
    out = [
        *material_violations("coax_fill", design.coax_fill),
        *material_violations("aperture_fill", design.aperture_fill),
        *coax_violations(design.coax),
        *aperture_violations(design.aperture),
    ]
    if design.sections < 1:
        out.append(f"sections must be >= 1 (got {design.sections!r})")
    if design.apertures_per_section < 1:
        out.append(f"apertures_per_section must be >= 1 (got {design.apertures_per_section!r})")
    if not 0.0 < design.section_pitch < math.inf:
        out.append(f"section_pitch must be finite and > 0 (got {design.section_pitch!r})")
    if not 0.0 < design.stopband_kappa < 1.0:
        out.append(f"stopband_kappa must lie strictly between 0 and 1 (got {design.stopband_kappa!r})")
    if not isinstance(design.dominant_mode_axis, DominantModeAxis):
        out.append(f"dominant_mode_axis must be a DominantModeAxis (got {design.dominant_mode_axis!r})")
    return out


# --- key-value files -----------------------------------------------------------
#
# Flat text, one `key = value` per line, `#` comments. Each format is one
# table of fields, which drives reading, writing and listing its values.


@dataclass(frozen=True)
class Field:
    """One key: the attribute it fills (dotted for a part, ``coax.r_inner``),
    its type (``float``, ``int`` or an enum of accepted words) and its
    default. A field without a default is required."""

    key: str
    attr: str
    kind: type
    default: object = None

    def read(self, text: str, lineno: int):
        try:
            return self.kind(text.upper()) if issubclass(self.kind, enum.Enum) else self.kind(text)
        except ValueError:
            expects = {float: "a number", int: "an integer"}.get(self.kind)
            expects = expects or " or ".join(member.value for member in self.kind)
            raise ParseError(f"key {self.key!r} expects {expects}, got {text!r}", line=lineno) from None


class KeyValueFormat:
    """The file format of ``cls``. ``parts`` maps each attribute of ``cls``
    that is itself a value object to its type; ``check`` lists the invariant
    violations of a value, which :meth:`loads` raises as a :class:`ParseError`.
    """

    def __init__(self, name: str, cls: type, parts: dict[str, type], fields: tuple[Field, ...], check):
        self.name = name
        self.cls = cls
        self.parts = parts
        self.fields = fields
        self.check = check
        self._by_key = {field.key: field for field in fields}
        self._getters = [attrgetter(field.attr) for field in fields]
        # (part or "", attribute name) that each field fills
        self._targets = [field.attr.rpartition(".")[::2] for field in fields]
        # part attributes that no field carries, with the default they must hold
        carried = {field.attr for field in fields}
        self._fixed = [
            (f"{part}.{attr.name}", attr.default)
            for part, part_cls in parts.items()
            for attr in dataclasses.fields(part_cls)
            if f"{part}.{attr.name}" not in carried
        ]

    def loads(self, text: str):
        """Parse and validate. Errors name the first bad line; a missing
        required key is reported after every line has been read."""
        read: dict[str, object] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, equals, value = body.partition("=")
            if not equals:
                raise ParseError(f"expected 'key = value', got {line.strip()!r}", line=lineno)
            key, value = key.strip(), value.strip()
            field = self._by_key.get(key)
            if field is None:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            if key in read:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            if not value:
                raise ParseError(f"missing value for key {key!r}", line=lineno)
            read[key] = field.read(value, lineno)
        kwargs, parts = {}, {part: {} for part in self.parts}
        for field, (part, attr) in zip(self.fields, self._targets):
            if field.default is None and field.key not in read:
                raise ParseError(f"missing required key {field.key!r}")
            (parts[part] if part else kwargs)[attr] = read.get(field.key, field.default)
        for part, part_cls in self.parts.items():
            kwargs[part] = part_cls(**parts[part])
        obj = self.cls(**kwargs)
        violations = self.check(obj)
        if violations:
            raise ParseError(f"invalid {self.name}: " + "; ".join(violations))
        return obj

    def values(self, obj) -> dict[str, object]:
        """Key -> value in table order, enum members as their value."""
        out = {}
        for field, get in zip(self.fields, self._getters):
            value = get(obj)
            out[field.key] = value.value if isinstance(value, enum.Enum) else value
        return out

    def dumps(self, obj, header: str = "") -> str:
        """Serialize ``obj`` with exact floats. A part attribute the fields do
        not carry must hold its default, else :class:`DomainError`."""
        for attr, default in self._fixed:
            value = attrgetter(attr)(obj)
            if value != default:
                raise DomainError(f"{self.name} files cannot carry {attr} = {value!r}")
        lines = [f"# {line}" for line in header.splitlines()]
        for key, value in self.values(obj).items():
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
        return "\n".join(lines) + "\n"


# Geometry keys and `sections` are required; the rest fall back to toolkit
# defaults.
DESIGN_FILE = KeyValueFormat(
    "design",
    FilterDesign,
    {"coax": CoaxGeometry, "coax_fill": Material, "aperture": RectAperture, "aperture_fill": Material},
    (
        Field("a_m", "aperture.width_a", float),
        Field("b_m", "aperture.height_b", float),
        Field("d_m", "aperture.depth_d", float),
        Field("r_inner_m", "coax.r_inner", float),
        Field("r_outer_m", "coax.r_outer", float),
        Field("coax_eps_r", "coax_fill.eps_r", float, 1.0),
        Field("aperture_eps_r", "aperture_fill.eps_r", float, 1.0),
        Field("apertures_per_section", "apertures_per_section", int, DEFAULT_APERTURES_PER_SECTION),
        Field("sections", "sections", int),
        Field("section_pitch_m", "section_pitch", float, DEFAULT_SECTION_PITCH),
        Field("stopband_kappa", "stopband_kappa", float, DEFAULT_STOPBAND_KAPPA),
        Field("dominant_mode_axis", "dominant_mode_axis", DominantModeAxis, DominantModeAxis.WIDTH),
    ),
    validate,
)


def loads_design(text: str) -> FilterDesign:
    """Parse a design file into a validated :class:`FilterDesign`."""
    return DESIGN_FILE.loads(text)


def dumps_design(design: FilterDesign, header: str = "") -> str:
    """Serialize a design to the key-value file format (exact float round-trip);
    a fill with ``mu_r != 1``, which the format does not carry, is a DomainError."""
    return DESIGN_FILE.dumps(design, header)


def with_aperture(design: FilterDesign, **dims: float) -> FilterDesign:
    """Copy a design with one or more aperture dimensions replaced."""
    return replace(design, aperture=replace(design.aperture, **dims))
