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
    dumps_design,
    loads_design,
    prototype_design,
    validate,
)
from dataclasses import fields, replace
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
    def test_equal_radii_single_violation(self, proto):
        violations = _refused(proto, coax=CoaxGeometry(r_inner=2e-3, r_outer=2e-3))
        assert len(violations) == 1
        assert "r_outer" in violations[0] and "r_inner" in violations[0]

    def test_zero_sections_single_violation(self, proto):
        violations = _refused(proto, sections=0)
        assert len(violations) == 1
        assert "sections" in violations[0]

    def test_kappa_bounds(self, proto):
        for kappa in (0.0, 1.0, -0.1, 1.5, math.nan):
            assert any("stopband_kappa" in v for v in _refused(proto, stopband_kappa=kappa))

    def test_material_violations_named(self, proto):
        violations = _refused(proto, aperture_fill=Material(eps_r=0.5))
        assert any("aperture_fill.eps_r" in v for v in violations)
        violations = _refused(proto, coax_fill=Material(eps_r=0.0))
        assert any("coax_fill.eps_r" in v for v in violations)


def _expected_valid(design: FilterDesign) -> bool:
    def ok_material(m):
        return math.isfinite(m.eps_r) and m.eps_r >= 1.0

    return (
        ok_material(design.coax_fill)
        and ok_material(design.aperture_fill)
        and math.isfinite(design.coax.r_inner)
        and design.coax.r_inner > 0.0
        and math.isfinite(design.coax.r_outer)
        and design.coax.r_outer > design.coax.r_inner
        and all(
            math.isfinite(v) and v > 0.0
            for v in (
                design.aperture.width_a,
                design.aperture.height_b,
                design.aperture.depth_d,
            )
        )
        and design.sections >= 1
        and design.apertures_per_section >= 1
        and math.isfinite(design.section_pitch)
        and design.section_pitch > 0.0
        and math.isfinite(design.stopband_kappa)
        and 0.0 < design.stopband_kappa < 1.0
    )


_maybe_bad_float = st.one_of(
    st.floats(min_value=-1.0, max_value=3.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, math.inf, math.nan, -math.inf]),
)
_maybe_bad_length = st.one_of(
    st.floats(min_value=-1e-3, max_value=1e-2),
    st.sampled_from([0.0, math.nan]),
)


@given(
    eps1=_maybe_bad_float,
    eps2=_maybe_bad_float,
    r_inner=_maybe_bad_length,
    r_outer=_maybe_bad_length,
    a=_maybe_bad_length,
    b=_maybe_bad_length,
    d=_maybe_bad_length,
    sections=st.integers(min_value=-2, max_value=6),
    per_section=st.integers(min_value=-2, max_value=12),
    pitch=_maybe_bad_length,
    kappa=_maybe_bad_float,
)
def test_validate_matches_invariants(
    eps1, eps2, r_inner, r_outer, a, b, d, sections, per_section, pitch, kappa
):
    """A design builds iff its fields hold every invariant; otherwise the
    error lists exactly what ``validate`` finds in the same fields."""
    values = dict(
        coax=CoaxGeometry(r_inner=r_inner, r_outer=r_outer),
        coax_fill=Material(eps_r=eps1),
        aperture=RectAperture(width_a=a, height_b=b, depth_d=d),
        aperture_fill=Material(eps_r=eps2),
        sections=sections,
        apertures_per_section=per_section,
        section_pitch=pitch,
        stopband_kappa=kappa,
    )
    unbuilt = SimpleNamespace(
        **{f.name: f.default for f in fields(FilterDesign) if f.name not in values}, **values
    )
    try:
        FilterDesign(**values)
    except DomainError as exc:
        assert not _expected_valid(unbuilt)
        assert str(exc) == "; ".join(validate(unbuilt))
    else:
        assert _expected_valid(unbuilt)
        assert validate(unbuilt) == []


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
