import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    AIR,
    CoaxGeometry,
    DomainError,
    DominantModeAxis,
    FilterDesign,
    FrequencyGrid,
    Material,
    ParseError,
    RectAperture,
    attenuation_vs_sections,
    corner_frequency,
    dumps_design,
    filter_response,
    loads_design,
    prototype_design,
    validate,
    with_aperture,
)
from herd import model
from herd.model import DEFAULT_TRANSITION_WIDTH, LOGISTIC_SHARPNESS, build_part
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace


class TestPrototype:
    def test_table_values(self, proto):
        assert proto.aperture.width_a == 0.004
        assert proto.aperture.height_b == 0.005
        assert proto.aperture.depth_d == 0.00485
        assert proto.coax.r_inner == 1.59e-3
        assert proto.coax.r_outer == 3.65e-3
        assert proto.aperture_fill.eps_r == 2.2
        assert proto.coax_fill.eps_r == 1.0
        assert proto.sections == 4

    def test_total_apertures(self, proto):
        assert proto.sections * proto.apertures_per_section == 32
        assert proto.total_apertures == 32

    def test_radius_ratio(self, proto):
        # 3.65 / 1.59
        assert proto.coax.ratio == pytest.approx(2.2956, abs=5e-4)

    def test_idempotent_and_valid(self, proto):
        assert prototype_design() == proto
        assert validate(proto) == []


def _refused(proto, **changes) -> list[str]:
    """The violations that building ``proto`` with ``changes`` raises."""
    with pytest.raises(DomainError) as err:
        replace(proto, **changes)
    return str(err.value).split("; ")


class TestValidate:
    def test_equal_radii_single_violation(self):
        with pytest.raises(DomainError) as err:
            CoaxGeometry(r_inner=2e-3, r_outer=2e-3)
        assert str(err.value) == "r_outer must exceed r_inner (got r_inner=0.002, r_outer=0.002)"

    def test_zero_sections_single_violation(self, proto):
        violations = _refused(proto, sections=0)
        assert len(violations) == 1
        assert "sections" in violations[0]

    def test_kappa_bounds(self, proto):
        for kappa in (0.0, 1.0, -0.1, 1.5, math.nan):
            assert any("stopband_kappa" in v for v in _refused(proto, stopband_kappa=kappa))

    def test_material_violations_named(self):
        with pytest.raises(DomainError) as err:
            Material(eps_r=0.5)
        assert str(err.value) == "eps_r must be finite and >= 1 (got 0.5)"
        with pytest.raises(DomainError) as err:
            build_part("coax_fill", Material, {"eps_r": 0.0})
        assert str(err.value) == "coax_fill.eps_r must be finite and >= 1 (got 0.0)"

    def test_build_part_names_every_violation_by_its_role(self):
        values = {"width_a": 0.0, "height_b": 5e-3, "depth_d": math.nan}
        with pytest.raises(DomainError) as err:
            build_part("aperture", RectAperture, values)
        assert str(err.value) == (
            "aperture.width_a must be finite and > 0 (got 0.0); "
            "aperture.depth_d must be finite and > 0 (got nan)"
        )


class TestCornerCheck:
    """A design whose dominant-mode corner over- or underflows is refused,
    on either axis; the other side of the aperture does not enter."""

    @pytest.mark.parametrize("axis, side", [("WIDTH", "width_a"), ("HEIGHT", "height_b")])
    @pytest.mark.parametrize("value", [1e-310, 5e-324, 1e-308])
    def test_a_subnormal_or_tiny_dominant_side_is_refused(self, proto, axis, side, value):
        design = replace(proto, dominant_mode_axis=DominantModeAxis[axis])
        with pytest.raises(DomainError) as err:
            with_aperture(design, **{side: value})
        assert str(err.value) == (
            "dominant-mode corner frequency must be finite and > 0 "
            f"(got inf Hz from aperture.{side} = {value!r} m)"
        )

    @pytest.mark.parametrize("axis, side", [("WIDTH", "height_b"), ("HEIGHT", "width_a")])
    def test_the_other_side_does_not_enter(self, proto, axis, side):
        design = with_aperture(replace(proto, dominant_mode_axis=DominantModeAxis[axis]), **{side: 1e-310})
        assert 0.0 < corner_frequency(design) < math.inf

    def test_an_underflowing_corner_is_refused(self, proto):
        with pytest.raises(DomainError, match=r"got 0\.0 Hz from aperture\.width_a = 1e\+300 m"):
            replace(proto, aperture=RectAperture(1e300, 1e-3, 1e-3), aperture_fill=Material(1e300))

    # The stopband blend scales f - fc by LOGISTIC_SHARPNESS /
    # (DEFAULT_TRANSITION_WIDTH * fc), which overflows for a positive corner
    # below about 5e-307 Hz, and divides by zero where 0.1 fc underflows.
    @pytest.mark.parametrize("eps_r, corner", [(1e14, "8.817425235294121e-308"), (1e46, "1e-323")])
    def test_a_corner_too_small_for_the_stopband_blend_is_refused(self, proto, eps_r, corner):
        with pytest.raises(DomainError) as err:
            replace(proto, aperture=RectAperture(1.7e308, 1e-3, 1e-3), aperture_fill=Material(eps_r))
        assert str(err.value) == (
            "dominant-mode corner frequency is too small for the stopband blend "
            f"(got {corner} Hz from aperture.width_a = 1.7e+308 m)"
        )

    def test_a_tiny_corner_that_builds_gives_a_finite_response(self, proto):
        # A corner of 1.5e-305 Hz keeps the blend's scale finite: half the
        # stopband drain at the corner, all of it at 1 Hz.
        design = replace(proto, aperture=RectAperture(1e306, 1e-3, 1e-3), aperture_fill=Material(1e14))
        fc = corner_frequency(design)
        power = np.abs(filter_response(design, FrequencyGrid((fc, 1.0))).s21) ** 2
        t_above = (1.0 - design.stopband_kappa) ** design.apertures_per_section
        assert power == pytest.approx([(0.5 * t_above) ** design.sections, t_above**design.sections])
        assert attenuation_vs_sections(design, 1.0, 1)[0][1] == pytest.approx(-10.0 * math.log10(t_above))


_any_side = st.floats(min_value=5e-324, allow_infinity=False)


def _blend_scale_finite(corner: float) -> bool:
    """Whether the stopband blend's scale at ``corner`` is finite, in numpy
    float64 arithmetic, where dividing by an underflowed zero gives inf."""
    with np.errstate(over="ignore", divide="ignore"):
        width = np.float64(DEFAULT_TRANSITION_WIDTH) * corner
        return bool(np.isfinite(np.float64(LOGISTIC_SHARPNESS) / width))


@given(
    side=_any_side,
    other=_any_side,
    eps_r=st.floats(min_value=1.0, allow_infinity=False),
    axis=st.sampled_from(DominantModeAxis),
)
def test_corner_check_matches_corner_frequency(side, other, eps_r, axis):
    """A design builds iff the corner that modes.corner_frequency gives for
    the same fields is finite and > 0 and keeps the stopband blend's scale
    finite; the response of a design that builds is finite at its corner."""
    a, b = (side, other) if axis is DominantModeAxis.WIDTH else (other, side)
    values = dict(
        aperture=RectAperture(width_a=a, height_b=b, depth_d=1e-3),
        aperture_fill=Material(eps_r=eps_r),
        dominant_mode_axis=axis,
    )
    corner = corner_frequency(SimpleNamespace(**values))
    try:
        design = replace(prototype_design(), **values)
    except DomainError as exc:
        if not 0.0 < corner < math.inf:
            assert str(exc).startswith("dominant-mode corner frequency must be finite and > 0")
        else:
            assert not _blend_scale_finite(corner)
            assert str(exc).startswith("dominant-mode corner frequency is too small")
    else:
        assert 0.0 < corner_frequency(design) == corner < math.inf
        assert _blend_scale_finite(corner)
        assert np.isfinite(filter_response(design, FrequencyGrid((corner,))).s21).all()


def _expected_valid(design) -> bool:
    """The design-level invariants; the parts checked themselves."""
    return (
        design.sections >= 1
        and design.apertures_per_section >= 1
        and math.isfinite(design.section_pitch)
        and design.section_pitch > 0.0
        and math.isfinite(design.stopband_kappa)
        and 0.0 < design.stopband_kappa < 1.0
        and 0.0 < corner_frequency(design) < math.inf
        and _blend_scale_finite(corner_frequency(design))
    )


_maybe_bad_float = st.one_of(
    st.floats(min_value=-1.0, max_value=3.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, math.inf, math.nan, -math.inf]),
)
_maybe_bad_length = st.one_of(
    st.floats(min_value=-1e-3, max_value=1e-2),
    st.sampled_from([0.0, math.nan]),
)
# Values that are no real number a float holds exactly, and small integers,
# which are.
_not_real = st.sampled_from([Fraction(1, 3), 10**400, "3", None])
_small_int = st.integers(min_value=-2, max_value=3)


def _real(value) -> bool:
    """A float, or an integer that a float holds exactly."""
    return type(value) is float or (type(value) is int and value.bit_length() <= 53)


@given(
    sections=st.integers(min_value=-2, max_value=6),
    per_section=st.integers(min_value=-2, max_value=12),
    pitch=_maybe_bad_length,
    kappa=_maybe_bad_float,
    width=st.one_of(st.just(4e-3), st.sampled_from([1e-310, 5e-324])),
    axis=st.sampled_from(DominantModeAxis),
)
def test_validate_matches_invariants(sections, per_section, pitch, kappa, width, axis):
    """A design builds iff its fields hold every design invariant; otherwise
    the error lists exactly what ``validate`` finds in the same fields."""
    proto = prototype_design()
    values = dict(
        aperture=RectAperture(width_a=width, height_b=width, depth_d=4.85e-3),
        sections=sections,
        apertures_per_section=per_section,
        section_pitch=pitch,
        stopband_kappa=kappa,
        dominant_mode_axis=axis,
    )
    unbuilt = SimpleNamespace(**{**vars(proto), **values})
    try:
        FilterDesign(**vars(unbuilt))
    except DomainError as exc:
        assert not _expected_valid(unbuilt)
        assert str(exc) == "; ".join(validate(unbuilt))
    else:
        assert _expected_valid(unbuilt)
        assert validate(unbuilt) == []


def _check_part(cls, violations, valid: bool, **values) -> None:
    """``cls(**values)`` builds iff ``valid``; otherwise its message is
    ``"; ".join`` of ``violations`` of the same fields."""
    try:
        part = cls(**values)
    except DomainError as exc:
        assert not valid
        assert str(exc) == "; ".join(violations(SimpleNamespace(**values)))
    else:
        assert valid
        assert violations(part) == []


@given(eps_r=st.one_of(_maybe_bad_float, _not_real, _small_int))
def test_material_builds_iff_valid(eps_r):
    valid = _real(eps_r) and 1.0 <= eps_r < math.inf
    _check_part(Material, model.material_violations, valid, eps_r=eps_r)


@given(
    r_inner=st.one_of(_maybe_bad_length, _not_real, _small_int),
    r_outer=st.one_of(_maybe_bad_length, _not_real, _small_int),
)
def test_coax_builds_iff_valid(r_inner, r_outer):
    valid = _real(r_inner) and _real(r_outer) and 0.0 < r_inner < r_outer < math.inf
    _check_part(CoaxGeometry, model.coax_violations, valid, r_inner=r_inner, r_outer=r_outer)


@given(
    a=st.one_of(_maybe_bad_length, _not_real, _small_int),
    b=st.one_of(_maybe_bad_length, _not_real, _small_int),
    d=st.one_of(_maybe_bad_length, _not_real, _small_int),
)
def test_aperture_builds_iff_valid(a, b, d):
    valid = all(_real(v) and 0.0 < v < math.inf for v in (a, b, d))
    _check_part(RectAperture, model.aperture_violations, valid, width_a=a, height_b=b, depth_d=d)


class TestFrequencyGrid:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            FrequencyGrid(())

    def test_rejects_non_increasing(self):
        with pytest.raises(DomainError):
            FrequencyGrid((1e9, 1e9))
        with pytest.raises(DomainError):
            FrequencyGrid((2e9, 1e9))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            FrequencyGrid((0.0, 1e9))
        with pytest.raises(DomainError):
            FrequencyGrid((-1e9, 1e9))

    def test_linear_and_log(self):
        lin = FrequencyGrid.linear(1e9, 2e9, 5)
        assert len(lin) == 5
        assert lin.points[0] == 1e9 and lin.points[-1] == 2e9
        log = FrequencyGrid.logarithmic(1e8, 1e11, 4)
        ratios = [b / a for a, b in zip(log.points, log.points[1:])]
        assert ratios == pytest.approx([10.0, 10.0, 10.0], rel=1e-12)

    def test_single_point_direct(self):
        grid = FrequencyGrid((5e9,))
        assert list(grid) == [5e9]

    @pytest.mark.parametrize("points", [np.array([[1e9, 2e9]]), np.array(5e9), 5e9, [[1e9], [2e9]]])
    def test_rejects_shapes_other_than_one_dimensional(self, points):
        shape = np.shape(points)
        with pytest.raises(DomainError, match=rf"one-dimensional \(got shape {re.escape(str(shape))}\)"):
            FrequencyGrid(points)


def _grid_fault(points):
    """The message of the first fault that FrequencyGrid's per-point checks
    find in a 1-D grid, or None for a valid one. This is the check the grid
    ran before it tested three comparisons first, kept as the oracle."""
    f = np.array(points, dtype=float)
    if len(f) == 0:
        return "frequency grid must not be empty"
    bad = ~(np.isfinite(f) & (f > 0.0))
    if bad.any():
        got = f[int(bad.argmax())].item()
        return f"frequency grid points must be finite and > 0 (got {got!r})"
    falling = ~(f[1:] > f[:-1])
    if falling.any():
        i = int(falling.argmax())
        return (
            f"frequency grid must be strictly increasing "
            f"({f[i].item()!r} -> {f[i + 1].item()!r})"
        )
    return None


_GRID_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e9, 5e-324, 1e9, 1.7976931348623157e308]


@st.composite
def _grid_points(draw):
    """Up to eight floats mixing NaN, infinities, zeros of both signs,
    negatives and the smallest subnormal, drawn as they come, sorted, sorted
    with one point repeated, or sorted with a descending run."""
    pool = st.one_of(
        st.sampled_from(_GRID_SPECIALS),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=5e-324, max_value=1e300),
    )
    values = draw(st.lists(pool, max_size=8))
    layout = draw(st.sampled_from(["drawn", "sorted", "sorted", "repeat", "descending run"]))
    if layout != "drawn":
        values.sort()
    if values and layout == "repeat":
        i = draw(st.integers(0, len(values) - 1))
        values.insert(i, values[i])
    if values and layout == "descending run":
        i = draw(st.integers(0, len(values) - 1))
        j = draw(st.integers(i, len(values)))
        values[i:j] = values[i:j][::-1]
    return values


@given(_grid_points())
def test_grid_check_matches_the_per_point_checks(values):
    want = _grid_fault(values)
    if want is None:
        grid = FrequencyGrid(np.array(values))
        assert grid.f.tolist() == values
    else:
        with pytest.raises(DomainError) as err:
            FrequencyGrid(np.array(values))
        assert str(err.value) == want


class TestDesignFile:
    def test_round_trip(self, proto):
        reloaded = loads_design(dumps_design(proto, header="round trip"))
        # the format carries eps_r only, so designs are identical through it
        assert loads_design(dumps_design(reloaded)) == reloaded
        assert reloaded.aperture == proto.aperture
        assert reloaded.coax == proto.coax
        assert reloaded.sections == proto.sections
        assert reloaded.stopband_kappa == proto.stopband_kappa
        assert reloaded.aperture_fill.eps_r == proto.aperture_fill.eps_r

    def test_unknown_key_errors_with_line(self):
        text = "a_m = 0.004\nbogus_key = 1\n"
        with pytest.raises(ParseError) as err:
            loads_design(text)
        assert "bogus_key" in str(err.value)
        assert err.value.line == 2

    def test_duplicate_key_errors(self, proto):
        text = dumps_design(proto) + "sections = 4\n"
        with pytest.raises(ParseError) as err:
            loads_design(text)
        assert "duplicate" in str(err.value)

    def test_missing_required_names_first_key(self):
        with pytest.raises(ParseError) as err:
            loads_design("")
        assert "'a_m'" in str(err.value)
        with pytest.raises(ParseError) as err:
            loads_design("a_m = 0.004\n")
        assert "'b_m'" in str(err.value)

    def test_defaults_applied(self):
        text = (
            "a_m = 0.004\nb_m = 0.005\nd_m = 0.00485\n"
            "r_inner_m = 0.00159\nr_outer_m = 0.00365\nsections = 4\n"
        )
        design = loads_design(text)
        assert design.apertures_per_section == 8
        assert design.section_pitch == 0.010
        assert design.coax_fill == AIR
        assert design.dominant_mode_axis is DominantModeAxis.WIDTH

    def test_axis_parsing(self, proto):
        text = dumps_design(proto).replace("WIDTH", "height")
        assert loads_design(text).dominant_mode_axis is DominantModeAxis.HEIGHT
        text = dumps_design(proto).replace("WIDTH", "SIDEWAYS")
        with pytest.raises(ParseError):
            loads_design(text)

    def test_bad_number_errors(self, proto):
        text = dumps_design(proto).replace("a_m = 0.004", "a_m = wide")
        with pytest.raises(ParseError) as err:
            loads_design(text)
        assert "a_m" in str(err.value)

    def test_invalid_design_rejected(self, proto):
        text = dumps_design(proto).replace("sections = 4", "sections = 0")
        with pytest.raises(ParseError) as err:
            loads_design(text)
        assert "sections" in str(err.value)

    def test_comments_and_blank_lines_ignored(self, proto):
        text = "# heading\n\n" + dumps_design(proto) + "\n# trailing\n"
        assert loads_design(text).sections == proto.sections
