import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    AIR,
    C0,
    ETA0,
    CoaxGeometry,
    DomainError,
    DominantModeAxis,
    Material,
    RectAperture,
    coax_char_impedance,
    coax_first_higher_mode_cutoff,
    coax_ratio_for_impedance,
    corner_frequency,
    inband_transmission,
    mode_chart,
    prototype_design,
    solve_inner_radius,
    with_aperture,
)
from herd.leakage import evanescent_gamma

PTFE_LIKE = Material(eps_r=2.2)


class TestModeIndex:
    """The chart lists only TE(m,n) modes that exist: m, n >= 0, not both 0."""

    def test_te00_rejected(self, proto):
        chart = mode_chart(proto.aperture, proto.aperture_fill, 200e9)
        assert (0, 0) not in {(e.m, e.n) for e in chart}

    def test_negative_rejected(self, proto):
        chart = mode_chart(proto.aperture, proto.aperture_fill, 200e9)
        assert all(e.m >= 0 and e.n >= 0 for e in chart)

    def test_valid(self, proto):
        first, second = mode_chart(proto.aperture, proto.aperture_fill, 30e9)
        assert (first.m, first.n, second.m, second.n) == (0, 1, 1, 0)


def _cutoff(m, n, ap, fill):
    """TE(m,n) cutoff as mode_chart lists it, charted just far enough:
    hypot(m / a, n / b) <= (m + n) / min(a, b)."""
    f_max = 1.5 * C0 * (m + n) / (2.0 * fill.refractive_index * min(ap.width_a, ap.height_b))
    (cutoff,) = [e.cutoff_hz for e in mode_chart(ap, fill, f_max) if (e.m, e.n) == (m, n)]
    return cutoff


class TestCoaxImpedance:
    def test_stock_radii(self, proto):
        z0 = coax_char_impedance(proto.coax, AIR)
        assert z0 == pytest.approx(49.83, abs=0.05)

    def test_log_term_unity(self):
        geom = CoaxGeometry(r_inner=1e-3, r_outer=math.e * 1e-3)
        assert coax_char_impedance(geom, AIR) == pytest.approx(ETA0 / (2 * math.pi), rel=1e-9)
        assert coax_char_impedance(geom, AIR) == pytest.approx(59.96, abs=0.005)

    def test_fifty_ohm_ratio(self):
        geom = CoaxGeometry(r_inner=1e-3, r_outer=2.3025e-3)
        assert coax_char_impedance(geom, AIR) == pytest.approx(50.00, abs=0.01)

    def test_dielectric_scaling(self):
        geom = CoaxGeometry(r_inner=1e-3, r_outer=3e-3)
        z_air = coax_char_impedance(geom, AIR)
        z_ptfe = coax_char_impedance(geom, PTFE_LIKE)
        assert z_ptfe == pytest.approx(z_air / math.sqrt(2.2), rel=1e-12)

    def test_invalid_geometry(self):
        with pytest.raises(DomainError):
            coax_char_impedance(CoaxGeometry(r_inner=2e-3, r_outer=1e-3), AIR)
        with pytest.raises(DomainError):
            coax_char_impedance(CoaxGeometry(r_inner=0.0, r_outer=1e-3), AIR)


class TestRatioForImpedance:
    def test_fifty_ohm(self):
        ratio = coax_ratio_for_impedance(50.0, AIR)
        assert ratio == pytest.approx(2.3025, abs=0.001)

    def test_small_impedance_limit(self):
        assert coax_ratio_for_impedance(1e-9, AIR) == pytest.approx(1.0, abs=1e-9)
        assert coax_ratio_for_impedance(1e-9, AIR) > 1.0

    def test_inverse_of_unit_log_term(self):
        assert coax_ratio_for_impedance(ETA0 / (2 * math.pi), AIR) == pytest.approx(
            math.e, abs=1e-6
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            coax_ratio_for_impedance(0.0, AIR)
        with pytest.raises(DomainError):
            coax_ratio_for_impedance(-50.0, AIR)

    @given(
        z0=st.floats(min_value=5.0, max_value=200.0),
        eps=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_mutual_inverse(self, z0, eps):
        fill = Material(eps_r=eps)
        ratio = coax_ratio_for_impedance(z0, fill)
        geom = CoaxGeometry(r_inner=1e-3, r_outer=1e-3 * ratio)
        assert coax_char_impedance(geom, fill) == pytest.approx(z0, rel=1e-12)


class TestHigherModeCutoff:
    def test_stock_radii(self, proto):
        f = coax_first_higher_mode_cutoff(proto.coax, AIR)
        assert f == pytest.approx(18.21e9, abs=0.05e9)

    def test_ten_gigahertz_radii(self):
        geom = CoaxGeometry(r_inner=2.89e-3, r_outer=2.89e-3 * 2.3025)
        assert coax_first_higher_mode_cutoff(geom, AIR) == pytest.approx(10.0e9, abs=0.1e9)

    def test_scaling_symmetry(self, proto):
        f1 = coax_first_higher_mode_cutoff(proto.coax, AIR)
        doubled = CoaxGeometry(r_inner=2 * proto.coax.r_inner, r_outer=2 * proto.coax.r_outer)
        assert coax_first_higher_mode_cutoff(doubled, AIR) == pytest.approx(f1 / 2, rel=1e-12)


class TestSolveInnerRadius:
    def test_fifty_ohm_ten_gigahertz(self):
        geom = solve_inner_radius(50.0, 10e9, AIR)
        assert geom.r_inner == pytest.approx(2.89e-3, abs=0.01e-3)

    def test_inverse_frequency_proportionality(self):
        g10 = solve_inner_radius(50.0, 10e9, AIR)
        g20 = solve_inner_radius(50.0, 20e9, AIR)
        assert g20.r_inner == pytest.approx(g10.r_inner / 2, rel=1e-12)
        assert g20.r_inner == pytest.approx(1.445e-3, abs=0.001e-3)

    @given(
        z0=st.floats(min_value=10.0, max_value=150.0),
        f=st.floats(min_value=1e9, max_value=50e9),
        eps=st.floats(min_value=1.0, max_value=5.0),
    )
    def test_round_trip(self, z0, f, eps):
        fill = Material(eps_r=eps)
        geom = solve_inner_radius(z0, f, fill)
        assert coax_first_higher_mode_cutoff(geom, fill) == pytest.approx(f, rel=1e-9)
        assert coax_char_impedance(geom, fill) == pytest.approx(z0, rel=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            solve_inner_radius(-50.0, 10e9, AIR)
        with pytest.raises(DomainError):
            solve_inner_radius(50.0, 0.0, AIR)

    @pytest.mark.parametrize("z0", [1e6, 1e308])
    def test_a_ratio_beyond_the_float_range_names_z0(self, z0):
        message = f"z0 = {z0!r} ohm needs a radius ratio r_outer/r_inner beyond the float range"
        with pytest.raises(DomainError) as err:
            solve_inner_radius(z0, 10e9, AIR)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "z0, f",
        [
            (50.0, 1e-300),  # the radii are finite, pi (r_outer + r_inner) is not
            (50.0, 1e-320),  # r_inner overflows
            (1e-10, 10e9),  # the ratio rounds to within 2e-16 of itself
            (50.0, 1e308),  # r_inner underflows to 0
        ],
    )
    def test_radii_that_do_not_carry_the_inputs_name_them(self, z0, f):
        with pytest.raises(DomainError) as err:
            solve_inner_radius(z0, f, AIR)
        assert str(err.value) == (
            f"no float coax radii give z0 = {z0!r} ohm with the single-mode limit "
            f"at f_single_mode = {f!r} Hz"
        )

    @given(
        # the whole float range, and the edges where radii stop carrying the
        # inputs: a ratio near 1, a ratio near overflow, radii near overflow
        z0=st.one_of(st.floats(), st.floats(1e-8, 1e-1), st.floats(1e4, 1e5)),
        f=st.one_of(st.floats(), st.floats(1e-310, 1e-280)),
        eps=st.floats(min_value=1.0, allow_infinity=False),
    )
    def test_returned_radii_carry_both_inputs(self, z0, f, eps):
        """Over the whole float range: where the solve returns, its radii give
        back the impedance and the single-mode limit to 1e-12."""
        fill = Material(eps_r=eps)
        try:
            geom = solve_inner_radius(z0, f, fill)
        except DomainError:
            return
        assert coax_char_impedance(geom, fill) == pytest.approx(z0, rel=1e-12, abs=0.0)
        assert coax_first_higher_mode_cutoff(geom, fill) == pytest.approx(f, rel=1e-12, abs=0.0)


class TestRectCutoff:
    def test_width_mode(self, proto):
        f = _cutoff(1, 0, proto.aperture, PTFE_LIKE)
        assert f == pytest.approx(25.26e9, abs=0.05e9)

    def test_height_mode(self, proto):
        f = _cutoff(0, 1, proto.aperture, PTFE_LIKE)
        assert f == pytest.approx(20.21e9, abs=0.05e9)

    def test_dielectric_scaling(self, proto):
        f_air = _cutoff(1, 0, proto.aperture, AIR)
        f_ptfe = _cutoff(1, 0, proto.aperture, PTFE_LIKE)
        assert f_air / f_ptfe == pytest.approx(math.sqrt(2.2), rel=1e-12)

    @given(
        a1=st.floats(min_value=1e-3, max_value=9e-3),
        shrink=st.floats(min_value=0.2, max_value=0.95),
        m=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=0, max_value=4),
    )
    def test_strictly_decreasing_in_width(self, a1, shrink, m, n):
        wide = RectAperture(width_a=a1, height_b=5e-3, depth_d=5e-3)
        narrow = RectAperture(width_a=a1 * shrink, height_b=5e-3, depth_d=5e-3)
        assert _cutoff(m, n, narrow, AIR) > _cutoff(m, n, wide, AIR)

    @given(
        eps=st.floats(min_value=1.0, max_value=8.0),
        grow=st.floats(min_value=1.05, max_value=4.0),
    )
    def test_strictly_decreasing_in_permittivity(self, eps, grow):
        ap = RectAperture(width_a=4e-3, height_b=5e-3, depth_d=5e-3)
        f_low = _cutoff(1, 0, ap, Material(eps_r=eps * grow))
        f_high = _cutoff(1, 0, ap, Material(eps_r=eps))
        assert f_low < f_high


class TestRectGamma:
    """The dominant aperture mode's attenuation constant, evanescent_gamma."""

    def test_evanescent_value(self, proto):
        gamma = evanescent_gamma(proto, corner_frequency(proto), 10e9)
        assert gamma == pytest.approx(721.3, abs=0.5)

    def test_zero_at_cutoff(self, proto):
        # and above it, where the in-band model does not apply
        fc = corner_frequency(proto)
        assert evanescent_gamma(proto, fc, np.array([fc, 40e9, 1.7e308])).tolist() == [0.0] * 3

    def test_static_limit(self, proto):
        gamma = evanescent_gamma(proto, corner_frequency(proto), 1.0)
        assert gamma == pytest.approx(math.pi / proto.aperture.width_a, rel=1e-9)
        assert gamma == pytest.approx(785.4, abs=0.1)

    def test_continuity_across_cutoff(self, proto):
        fc = corner_frequency(proto)
        previous = math.inf
        for delta in (1e-6, 1e-9, 1e-12):
            below = evanescent_gamma(proto, fc, fc * (1 - delta))
            assert below < previous
            assert evanescent_gamma(proto, fc, fc * (1 + delta)) == 0.0
            previous = below
        assert previous < 2e-3 * (math.pi / proto.aperture.width_a)

    def test_nonpositive_frequency(self, proto):
        # the in-band model checks the frequencies it takes gamma at
        with pytest.raises(DomainError):
            inband_transmission(proto, 0.0)


class TestModeChart:
    def test_stock_aperture(self, proto):
        chart = mode_chart(proto.aperture, PTFE_LIKE, 30e9)
        assert [(e.m, e.n) for e in chart] == [(0, 1), (1, 0)]
        assert chart[0].cutoff_hz == pytest.approx(20.21e9, abs=0.05e9)
        assert chart[1].cutoff_hz == pytest.approx(25.26e9, abs=0.05e9)

    def test_empty_below_lowest_cutoff(self, proto):
        assert mode_chart(proto.aperture, PTFE_LIKE, 10e9) == []

    def test_matches_brute_force(self, proto):
        f_max = 80e9
        chart = mode_chart(proto.aperture, PTFE_LIKE, f_max)
        brute = []
        for m in range(0, 12):
            for n in range(0, 12):
                if m == 0 and n == 0:
                    continue
                ap = proto.aperture
                fc = C0 / (2.0 * PTFE_LIKE.refractive_index) * math.hypot(m / ap.width_a, n / ap.height_b)
                if fc <= f_max:
                    brute.append(((fc, m, n)))
        brute.sort()
        assert [(e.cutoff_hz, e.m, e.n) for e in chart] == brute

    def test_entries_consistent_and_sorted(self, proto):
        chart = mode_chart(proto.aperture, PTFE_LIKE, 60e9)
        assert len({(e.m, e.n) for e in chart}) == len(chart)
        cutoffs = [e.cutoff_hz for e in chart]
        assert cutoffs == sorted(cutoffs)


class TestCornerFrequency:
    def test_stock_value(self, proto):
        assert corner_frequency(proto) == pytest.approx(25.26e9, abs=0.05e9)

    def test_width_scaling(self, proto):
        doubled = with_aperture(proto, width_a=2 * proto.aperture.width_a)
        assert corner_frequency(doubled) == pytest.approx(corner_frequency(proto) / 2, rel=1e-12)

    def test_height_does_not_enter(self, proto):
        for b in (1e-3, 3e-3, 8e-3, 0.5):
            assert corner_frequency(with_aperture(proto, height_b=b)) == corner_frequency(proto)

    def test_height_axis(self, proto):
        from dataclasses import replace

        flipped = replace(proto, dominant_mode_axis=DominantModeAxis.HEIGHT)
        assert corner_frequency(flipped) == pytest.approx(20.21e9, abs=0.05e9)

    @given(b=st.floats(min_value=1e-4, max_value=0.1))
    def test_height_invariance_property(self, b):
        design = prototype_design()
        assert corner_frequency(with_aperture(design, height_b=b)) == corner_frequency(design)

    def test_closed_form(self, proto):
        expected = C0 / (2 * proto.aperture.width_a * math.sqrt(2.2))
        assert corner_frequency(proto) == pytest.approx(expected, rel=1e-12)
