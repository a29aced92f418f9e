"""Domain types for the leaky-coax low-pass filter toolkit.

All types are immutable value objects that refuse bad values with
:class:`DomainError` when they are built, so a value that exists is valid and
no function checks it again. A part of a design (a fill, the coax, the
aperture) names the bare field in its message (``eps_r``), and
:func:`build_part` adds the part's role (``coax_fill.eps_r``).
:func:`validate` lists a design's violations.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import C0
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

# Fraction of the corner frequency over which the cascade blends its
# below/above-cutoff branches. The logistic runs from 1% to 99% across that
# band, so it scales f - fc by LOGISTIC_SHARPNESS / (DEFAULT_TRANSITION_WIDTH
# * fc), which a design's corner must keep finite.
DEFAULT_TRANSITION_WIDTH = 0.10
LOGISTIC_SHARPNESS = 2.0 * math.log(99.0)

# Most points a FrequencyGrid.linear or .logarithmic grid may have. A streamed
# `herd analyze` holds about 64 (CSV, JSON) to 88 (Touchstone) resident bytes
# per point, so a grid of this size stays under 1 GiB; a larger one is refused
# before its array is allocated.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class Material:
    """Fill medium: a non-magnetic dielectric of relative permittivity eps_r.

    ``refractive_index``, sqrt(eps_r), the slowing factor relative to vacuum,
    is set once when the material is built: the model reads it on every
    call. It is an attribute, not a field, so it takes no part in ``==``,
    ``hash`` or ``repr``.
    """

    eps_r: float

    def __post_init__(self):
        raise_violations(material_violations(self))
        object.__setattr__(self, "refractive_index", math.sqrt(self.eps_r))


@dataclass(frozen=True)
class CoaxGeometry:
    """Cylindrical coaxial line cross-section, radii in meters."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        raise_violations(coax_violations(self))

    @property
    def ratio(self) -> float:
        return self.r_outer / self.r_inner


@dataclass(frozen=True)
class RectAperture:
    """Rectangular leaking hole: width a, height b, depth d, in meters."""

    width_a: float
    height_b: float
    depth_d: float

    def __post_init__(self):
        raise_violations(aperture_violations(self))


class DominantModeAxis(enum.Enum):
    """Aperture axis carrying the dominant coupled mode (one half-wave)."""

    WIDTH = "WIDTH"
    HEIGHT = "HEIGHT"


@dataclass(frozen=True)
class FilterDesign:
    """Complete description of a leaky-coax filter.

    A section is a ring group of apertures around the outer conductor; the
    filter repeats it ``sections`` times along the axis. Building one raises
    :class:`DomainError` with every violation :func:`validate` finds.
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

    def __post_init__(self):
        raise_violations(validate(self))

    @property
    def total_apertures(self) -> int:
        return self.sections * self.apertures_per_section


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing, non-empty, one-dimensional list of frequencies in Hz.

    ``points`` is kept as one read-only float64 array, also named ``f``.
    Iterating yields Python floats. Grids compare by identity.
    """

    points: np.ndarray

    def __post_init__(self):
        f = np.array(self.points, dtype=float)
        if f.ndim != 1:
            raise DomainError(f"frequency grid must be one-dimensional (got shape {f.shape})")
        # A positive first point, a finite last one and strictly rising steps
        # make every point finite and positive; a NaN fails every comparison.
        if not (len(f) and f[0] > 0.0 and f[-1] < math.inf and (f[1:] > f[:-1]).all()):
            _refuse_grid(f)
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


def _refuse_grid(f: np.ndarray) -> None:
    """Raise the :class:`DomainError` naming the first fault of a 1-D grid
    that fails :class:`FrequencyGrid`'s check."""
    if len(f) == 0:
        raise DomainError("frequency grid must not be empty")
    bad = ~(np.isfinite(f) & (f > 0.0))
    if bad.any():
        got = f[int(bad.argmax())].item()
        raise DomainError(f"frequency grid points must be finite and > 0 (got {got!r})")
    i = int((f[1:] <= f[:-1]).argmax())  # every point is finite here
    raise DomainError(
        f"frequency grid must be strictly increasing ({f[i].item()!r} -> {f[i + 1].item()!r})"
    )


def _check_span(spacing: str, start: float, stop: float, points: int) -> None:
    # Checked before numpy sees the bounds: geomspace raises ValueError for a
    # zero stop, and both spacings warn on an infinite one.
    if points < 2:
        raise DomainError(f"a {spacing} grid needs at least 2 points (got {points})")
    if points > MAX_GRID_POINTS:
        raise DomainError(f"a {spacing} grid takes at most {MAX_GRID_POINTS} points (got {points})")
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
# `0.0 < x < math.inf` is false for nan and infinities.


def raise_violations(violations: list[str]) -> None:
    """Raise one :class:`DomainError` listing ``violations``, if there are any."""
    if violations:
        raise DomainError("; ".join(violations))


def real_violations(name: str, value) -> list[str]:
    """Violations of a float field named ``name``: ``value`` must be a real
    number that a float holds exactly, or it could not be written to a file
    and read back. ``float`` refuses ``"3"`` and ``None``, overflows on
    ``10**400`` and rounds ``Fraction(1, 3)``. NaN and the infinities are
    floats: the range checks refuse them."""
    if type(value) is float:
        return []
    try:
        if float(value) == value or value != value:
            return []
    except (TypeError, ValueError, OverflowError):
        pass
    return [f"{name} must be a real number that a float holds exactly (got {value!r})"]


def positive_violations(name: str, value) -> list[str]:
    """Violations of a float field that must be finite and > 0."""
    if type(value) is float and 0.0 < value < math.inf:
        return []
    out = real_violations(name, value)
    if not out and not 0.0 < value < math.inf:
        out.append(f"{name} must be finite and > 0 (got {value!r})")
    return out


def material_violations(mat: Material) -> list[str]:
    out = real_violations("eps_r", mat.eps_r)
    if not out and not 1.0 <= mat.eps_r < math.inf:
        out.append(f"eps_r must be finite and >= 1 (got {mat.eps_r!r})")
    return out


def coax_violations(coax: CoaxGeometry) -> list[str]:
    out = real_violations("r_inner", coax.r_inner) + real_violations("r_outer", coax.r_outer)
    if out:
        return out
    if not 0.0 < coax.r_inner < math.inf:
        out.append(f"r_inner must be finite and > 0 (got {coax.r_inner!r})")
    if not coax.r_inner < coax.r_outer < math.inf:
        got = f"r_inner={coax.r_inner!r}, r_outer={coax.r_outer!r}"
        out.append(f"r_outer must exceed r_inner (got {got})")
    return out


def aperture_violations(ap: RectAperture) -> list[str]:
    return [
        *positive_violations("width_a", ap.width_a),
        *positive_violations("height_b", ap.height_b),
        *positive_violations("depth_d", ap.depth_d),
    ]


def build_part(role: str, cls: type, values: dict):
    """``cls(**values)``, a part of a design, with each violation it raises
    named by the part's role: ``coax_fill.eps_r`` for ``eps_r``. The
    violations are split at the ``"; "`` that joins them, which the repr of
    a number never holds."""
    try:
        return cls(**values)
    except DomainError as exc:
        raise DomainError("; ".join(f"{role}.{v}" for v in str(exc).split("; "))) from None


AIR = Material(eps_r=1.0)
PTFE = Material(eps_r=2.2)


def count_violations(name: str, count) -> list[str]:
    """Violations of a count, named ``name``: an integer (``int``, ``bool``
    or a numpy integer, as ``operator.index`` takes them) of at least 1."""
    try:
        count = operator.index(count)
    except TypeError:
        return [f"{name} must be an integer (got {count!r})"]
    return [] if count >= 1 else [f"{name} must be >= 1 (got {count!r})"]


def validate(design: FilterDesign) -> list[str]:
    """Check every design invariant; return one message per violation.

    An empty list means the design is valid. Nothing is raised: violations
    are the return value, which :class:`FilterDesign` raises when it is built.
    The parts checked themselves when they were built.
    """
    out = [
        *count_violations("sections", design.sections),
        *count_violations("apertures_per_section", design.apertures_per_section),
    ]
    out += positive_violations("section_pitch", design.section_pitch)
    kappa = design.stopband_kappa
    kappa_violations = [] if type(kappa) is float else real_violations("stopband_kappa", kappa)
    if not kappa_violations and not 0.0 < kappa < 1.0:
        kappa_violations.append(f"stopband_kappa must lie strictly between 0 and 1 (got {kappa!r})")
    out += kappa_violations
    axis = design.dominant_mode_axis
    if not isinstance(axis, DominantModeAxis):
        out.append(f"dominant_mode_axis must be a DominantModeAxis (got {axis!r})")
        return out
    # A subnormal side overflows the corner, and a huge side and eps_r
    # underflow it.
    key = dominant_side(design)
    side = float(getattr(design.aperture, key))
    corner = dominant_corner(design.aperture_fill, side)
    if not 0.0 < corner < math.inf:
        out.append(
            "dominant-mode corner frequency must be finite and > 0 "
            f"(got {corner!r} Hz from aperture.{key} = {side!r} m)"
        )
        return out
    # The stopband blend's scale overflows below a corner of about 5e-307 Hz.
    width = DEFAULT_TRANSITION_WIDTH * corner
    if not (width > 0.0 and LOGISTIC_SHARPNESS / width < math.inf):
        out.append(
            "dominant-mode corner frequency is too small for the stopband blend "
            f"(got {corner!r} Hz from aperture.{key} = {side!r} m)"
        )
    return out


def dominant_side(design: FilterDesign) -> str:
    """The aperture field the dominant mode spans one half-wave across:
    ``"height_b"`` with the HEIGHT axis, else ``"width_a"``."""
    return "height_b" if design.dominant_mode_axis is DominantModeAxis.HEIGHT else "width_a"


def dominant_corner(fill: Material, side):
    """Cutoff of the dominant aperture mode across ``side`` [m] (a float or
    an array) in ``fill``, c0 / (2 side sqrt(eps_r)) [Hz]: the corner
    frequency."""
    return C0 / (2.0 * fill.refractive_index) * (1.0 / side)


def swept_corners(design: FilterDesign, field: str, values: np.ndarray):
    """(corner, ok) for ``design`` with its aperture's ``field`` set to each
    of the float64 ``values``: each variant's corner frequency [Hz], and
    whether :func:`with_aperture` builds it, as :func:`validate` decides
    it (a value finite and > 0, and a corner finite, > 0 and large enough
    for the stopband blend). Both are arrays, found without a numpy warning
    and without building a variant."""
    key = dominant_side(design)
    sides = values if field == key else np.full(len(values), float(getattr(design.aperture, key)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        corner = dominant_corner(design.aperture_fill, sides)
        ok = (values > 0.0) & (values < math.inf) & (corner > 0.0) & (corner < math.inf)
        ok &= LOGISTIC_SHARPNESS / (DEFAULT_TRANSITION_WIDTH * corner) < math.inf
    return corner, ok


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

    def reader(self):
        """The function from a value's text to the value; it raises
        ``ValueError`` for a text that :meth:`expects` does not name."""
        kind = self.kind
        return (lambda text: kind(text.upper())) if issubclass(kind, enum.Enum) else kind

    def expects(self) -> str:
        """What a value of this field is, in words."""
        if issubclass(self.kind, enum.Enum):
            return " or ".join(member.value for member in self.kind)
        return {float: "a number", int: "an integer"}[self.kind]

    def writer(self):
        """(value, text): the functions from the attribute to the value
        :meth:`KeyValueFormat.values` lists (an enum member's value, or a
        Python ``float`` or ``int``) and from that value to its text."""
        if issubclass(self.kind, enum.Enum):
            return operator.attrgetter("value"), str
        return self.kind, repr


class KeyValueFormat:
    """The file format of ``cls``. ``parts`` maps each attribute of ``cls``
    that is itself a value object to its type. :meth:`loads` raises the
    :class:`DomainError` of building a part (named by its role) or ``cls``
    as a :class:`ParseError`; the first faulty part is the one reported.

    Each field's reader and writer are chosen once, when the format is
    built, so a value read or written costs no test of its field's type."""

    def __init__(self, name: str, cls: type, parts: dict[str, type], fields: tuple[Field, ...]):
        self.name = name
        self.cls = cls
        self.parts = parts
        self.fields = fields
        self._readers = {field.key: field.reader() for field in fields}
        self._expects = {field.key: field.expects() for field in fields}
        # (key, attribute getter, value of the attribute, text of the value)
        self._writers = [(field.key, operator.attrgetter(field.attr), *field.writer()) for field in fields]
        # (key, default, part or "", attribute name) that each field fills
        self._targets = [(field.key, field.default, *field.attr.rpartition(".")[::2]) for field in fields]

    def loads(self, text: str):
        """Parse and validate. Errors name the first bad line; a missing
        required key is reported after every line has been read."""
        read: dict[str, object] = {}
        readers = self._readers
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.partition("#")[0].strip()
            if not body:
                continue
            key, equals, value = body.partition("=")
            if not equals:
                raise ParseError(f"expected 'key = value', got {line.strip()!r}", line=lineno)
            key, value = key.strip(), value.strip()
            reader = readers.get(key)
            if reader is None:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            if key in read:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            if not value:
                raise ParseError(f"missing value for key {key!r}", line=lineno)
            try:
                read[key] = reader(value)
            except ValueError:
                expects = self._expects[key]
                raise ParseError(f"key {key!r} expects {expects}, got {value!r}", line=lineno) from None
        kwargs, parts = {}, {part: {} for part in self.parts}
        # No reader returns None, so None is a required key that is missing.
        for key, default, part, attr in self._targets:
            value = read.get(key, default)
            if value is None:
                raise ParseError(f"missing required key {key!r}")
            (parts[part] if part else kwargs)[attr] = value
        try:
            for part, part_cls in self.parts.items():
                kwargs[part] = build_part(part, part_cls, parts[part])
            return self.cls(**kwargs)
        except DomainError as exc:
            raise ParseError(f"invalid {self.name}: {exc}") from None

    def values(self, obj) -> dict[str, object]:
        """Key -> value in table order: enum members as their value, numbers
        as Python ``float`` or ``int`` (so a numpy scalar is written as a
        number). ``int`` loses nothing: a count is an integer when built."""
        return {key: value(get(obj)) for key, get, value, _ in self._writers}

    def dumps(self, obj, header: str = "") -> str:
        """Serialize ``obj`` with exact floats."""
        lines = [f"# {line}" for line in header.splitlines()]
        lines += [f"{key} = {text(value(get(obj)))}" for key, get, value, text in self._writers]
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
)


def loads_design(text: str) -> FilterDesign:
    """Parse a design file into a validated :class:`FilterDesign`."""
    return DESIGN_FILE.loads(text)


def dumps_design(design: FilterDesign, header: str = "") -> str:
    """Serialize a design to the key-value file format (exact float round-trip)."""
    return DESIGN_FILE.dumps(design, header)


def with_aperture(design: FilterDesign, **dims: float) -> FilterDesign:
    """Copy a design with one or more aperture dimensions replaced; the copy is checked.

    The copy is built field by field, as ``dataclasses.replace`` would build
    it, without ``replace``'s walk over the fields."""
    aperture = build_part("aperture", RectAperture, {**vars(design.aperture), **dims})
    return FilterDesign(
        design.coax,
        design.coax_fill,
        aperture,
        design.aperture_fill,
        design.sections,
        design.apertures_per_section,
        design.section_pitch,
        design.stopband_kappa,
        design.dominant_mode_axis,
    )
