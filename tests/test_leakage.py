import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    C0,
    DomainError,
    FrequencyGrid,
    corner_frequency,
    dumps_design,
    filter_response,
    inband_transmission,
    loads_design,
    min_depth_for_budget,
    mismatch_loss_db,
    prototype_design,
    with_aperture,
)
from herd.cascade import section_attenuation_db
from herd.leakage import aperture_sweep, evanescent_gamma


def _amplitude(design, f):
    """Field amplitude F = exp(-gamma d) surviving one aperture depth."""
    return math.exp(-evanescent_gamma(design, corner_frequency(design), f) * design.aperture.depth_d)


class TestEvanescentAmplitude:
    def test_stock_at_10ghz(self, proto):
        assert _amplitude(proto, 10e9) == pytest.approx(0.0302, abs=0.0005)

    def test_zero_depth_limit(self, proto):
        shallow = with_aperture(proto, depth_d=1e-12)
        assert _amplitude(shallow, 10e9) == pytest.approx(1.0, abs=1e-8)

    def test_decreasing_in_depth(self, proto):
        depths = [1e-3, 2e-3, 4e-3, 8e-3]
        amps = [_amplitude(with_aperture(proto, depth_d=d), 10e9) for d in depths]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_increasing_in_frequency(self, proto):
        freqs = [2e9, 5e9, 10e9, 15e9, 20e9]
        amps = [_amplitude(proto, f) for f in freqs]
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_rejected_at_and_above_corner(self, proto):
        fc = corner_frequency(proto)
        with pytest.raises(DomainError):
            inband_transmission(proto, fc)
        with pytest.raises(DomainError):
            inband_transmission(proto, 1.5 * fc)


class TestInbandTransmission:
    def test_stock_loss_at_10ghz(self, proto):
        breakdown = inband_transmission(proto, 10e9)
        assert breakdown.insertion_loss_db == pytest.approx(0.127, abs=0.005)
        assert breakdown.insertion_loss_db <= 0.15

    def test_breakdown_self_consistent(self, proto):
        # the loss is additive over all apertures
        leak = _amplitude(proto, 10e9) ** 2
        loss = -10.0 * proto.total_apertures * math.log10(1.0 - leak)
        assert inband_transmission(proto, 10e9).insertion_loss_db == pytest.approx(loss, rel=1e-12)

    def test_single_aperture(self, proto):
        single = replace(proto, sections=1, apertures_per_section=1)
        amp = _amplitude(single, 10e9)
        loss = inband_transmission(single, 10e9).insertion_loss_db
        assert loss == pytest.approx(-10.0 * math.log10(1.0 - amp * amp), rel=1e-12)

    def test_doubling_sections_squares_transmission(self, proto):
        doubled = replace(proto, sections=2 * proto.sections)
        t1 = 10.0 ** (-inband_transmission(proto, 10e9).insertion_loss_db / 10.0)
        t2 = 10.0 ** (-inband_transmission(doubled, 10e9).insertion_loss_db / 10.0)
        assert t2 == pytest.approx(t1 * t1, rel=1e-12)

    def test_underflowing_transmission_is_infinite_loss(self, proto):
        vanishing = with_aperture(proto, depth_d=1e-15)
        assert inband_transmission(vanishing, 10e9).insertion_loss_db == math.inf
        curve = inband_transmission(vanishing, np.array([1e9, 10e9]))
        assert curve.insertion_loss_db.tolist() == [math.inf, math.inf]
        # thicker, only the points next to the corner underflow
        thin = with_aperture(proto, depth_d=1e-9)
        near = (1.0 - 1e-12) * corner_frequency(thin)
        curve = inband_transmission(thin, np.array([1e9, near]))
        assert math.isfinite(curve.insertion_loss_db[0])
        assert curve.insertion_loss_db[1] == math.inf

    @given(f=st.floats(min_value=1e8, max_value=25e9))
    def test_transmission_in_unit_interval(self, f):
        design = prototype_design()
        if f >= corner_frequency(design):
            return
        loss = inband_transmission(design, f).insertion_loss_db
        assert 0.0 <= loss < math.inf


class TestMismatchLoss:
    def test_minus_twenty(self):
        assert mismatch_loss_db(-20.0) == pytest.approx(0.0436, abs=0.0005)

    def test_minus_twenty_three(self):
        assert mismatch_loss_db(-23.0) == pytest.approx(0.0218, abs=0.0005)

    def test_perfect_match_limit(self):
        assert abs(mismatch_loss_db(-300.0)) <= 1e-12

    def test_nonnegative_rejected(self):
        with pytest.raises(DomainError):
            mismatch_loss_db(0.0)
        with pytest.raises(DomainError):
            mismatch_loss_db(3.0)


class TestMinDepthForBudget:
    def test_stock_budget(self, proto):
        d = min_depth_for_budget(proto, 10e9, 0.127)
        assert d == pytest.approx(4.85e-3, abs=0.02e-3)

    def test_inverse_of_forward_model(self, proto):
        loss = inband_transmission(proto, 10e9).insertion_loss_db
        d = min_depth_for_budget(proto, 10e9, loss)
        assert d == pytest.approx(proto.aperture.depth_d, rel=1e-9)

    @given(
        budget=st.floats(min_value=1e-3, max_value=3.0),
        f=st.floats(min_value=1e9, max_value=20e9),
    )
    def test_round_trip_meets_budget_exactly(self, budget, f):
        design = prototype_design()
        depth = min_depth_for_budget(design, f, budget)
        achieved = inband_transmission(with_aperture(design, depth_d=depth), f).insertion_loss_db
        assert achieved == pytest.approx(budget, abs=1e-9)

    def test_unbounded_budget_gives_zero_depth(self, proto):
        assert min_depth_for_budget(proto, 10e9, 1e9) == pytest.approx(0.0, abs=1e-15)

    def test_halving_budget_increases_depth(self, proto):
        budgets = [0.4, 0.2, 0.1, 0.05]
        depths = [min_depth_for_budget(proto, 10e9, b) for b in budgets]
        assert all(a < b for a, b in zip(depths, depths[1:]))

    def test_invalid_inputs(self, proto):
        with pytest.raises(DomainError):
            min_depth_for_budget(proto, 10e9, 0.0)
        with pytest.raises(DomainError):
            min_depth_for_budget(proto, 2 * corner_frequency(proto), 0.1)


class TestInbandLossCurve:
    """:func:`inband_transmission` over an array of frequencies."""

    def test_strictly_increasing(self, proto):
        grid = FrequencyGrid.linear(1e9, 12e9, 45)
        curve = inband_transmission(proto, grid.f)
        losses = curve.insertion_loss_db
        assert losses.shape == (len(grid),)
        assert np.all(np.diff(losses) > 0.0)

    def test_single_point_reduces_to_transmission(self, proto):
        curve = inband_transmission(proto, FrequencyGrid((10e9,)).f)
        point = inband_transmission(proto, 10e9)
        assert curve.insertion_loss_db.tolist() == [point.insertion_loss_db]

    def test_point_above_corner_names_frequency(self, proto):
        grid = FrequencyGrid((1e9, 30e9, 40e9))
        with pytest.raises(DomainError) as err:
            inband_transmission(proto, grid.f)
        assert "30000000000" in str(err.value)

    def test_against_minus20_mismatch_reference(self, proto):
        # Evanescent decay stays finite toward DC (gamma -> pi/a), so the
        # stock curve has a 0.068 dB floor and sits above the -20 dB
        # mismatch figure across the whole band: leakage dominates.
        reference = mismatch_loss_db(-20.0)
        grid = FrequencyGrid.linear(1e8, 10e9, 30)
        assert np.all(inband_transmission(proto, grid.f).insertion_loss_db > reference)

        # A deeper aperture drops the floor below the reference, and the
        # rising curve then crosses it inside the band.
        deep = with_aperture(proto, depth_d=5.5e-3)
        assert inband_transmission(deep, 1e8).insertion_loss_db < reference
        assert inband_transmission(deep, 10e9).insertion_loss_db > reference
        lo, hi = 1e8, 10e9
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if inband_transmission(deep, mid).insertion_loss_db < reference:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        assert 1e8 < crossing < 10e9
        assert inband_transmission(deep, crossing).insertion_loss_db == pytest.approx(
            reference, abs=1e-6
        )


# --- corners near the float limit ---------------------------------------------
#
# The stock design with a_m = d_m = 1e-300 has its corner near 1e308 Hz,
# where (fc - f)(fc + f) overflows a float.

MAX = 1.7976931348623157e308


def _tiny(proto):
    return with_aperture(proto, width_a=1e-300, depth_d=1e-300)


def _closed_form_loss(design, f):
    """In-band loss from gamma = 2 pi n / c0 * sqrt(fc - f) sqrt(fc + f)."""
    fc = corner_frequency(design)
    scale = 2.0 * math.pi * design.aperture_fill.refractive_index / C0
    amp = math.exp(-scale * math.sqrt(fc - f) * math.sqrt(fc + f) * design.aperture.depth_d)
    return -10.0 * design.total_apertures * math.log10(1.0 - amp * amp)


@pytest.mark.filterwarnings("error")
class TestCornerNearTheFloatLimit:
    def test_loss_is_the_closed_form(self, proto):
        tiny = _tiny(proto)
        assert corner_frequency(tiny) > 1e308
        assert inband_transmission(tiny, 10e9).insertion_loss_db == pytest.approx(0.25977, abs=1e-5)
        freqs = [1.0, 10e9, 1e154, 1e300, 0.5 * corner_frequency(tiny)]
        curve = inband_transmission(tiny, np.array(freqs)).insertion_loss_db
        for f, loss in zip(freqs, curve.tolist()):
            want = _closed_form_loss(tiny, f)
            assert inband_transmission(tiny, f).insertion_loss_db == pytest.approx(want, rel=1e-12)
            assert loss == pytest.approx(want, rel=1e-12)

    def test_swept_depths_and_widths(self, proto):
        tiny = _tiny(proto)
        depths = np.array([1e-300, 1.5e-300, 2e-300])
        _, loss = aperture_sweep(tiny, "depth_d", depths, 10e9)
        want = [_closed_form_loss(with_aperture(tiny, depth_d=d), 10e9) for d in depths.tolist()]
        assert loss.tolist() == pytest.approx(want, rel=1e-12)
        # a stock depth stops every field that a 1e-300 m hole lets in
        widths = np.array([1e-300, 2e-300, proto.aperture.width_a])
        _, loss = aperture_sweep(proto, "width_a", widths, 10e9)
        assert loss.tolist() == [0.0, 0.0, inband_transmission(proto, 10e9).insertion_loss_db]

    def test_depth_budget_and_cascade(self, proto):
        tiny = _tiny(proto)
        depth = min_depth_for_budget(tiny, 10e9, 0.1)
        achieved = inband_transmission(with_aperture(tiny, depth_d=depth), 10e9).insertion_loss_db
        assert achieved == pytest.approx(0.1, rel=1e-9)
        table = filter_response(tiny, FrequencyGrid((1e9, 10e9)))
        want = [_closed_form_loss(tiny, f) for f in (1e9, 10e9)]
        assert (-20.0 * np.log10(np.abs(table.s21))).tolist() == pytest.approx(want, rel=1e-12)


class TestDecayPastTheFloatRange:
    """A 1e-308 m wide hole filled with eps_r = 1e20: the corner is 1.5e306
    Hz, and gamma = 2 pi n / c0 * sqrt(fc - f) sqrt(fc + f) exceeds the float
    range. gamma is inf and the loss 0 dB, without a floating-point fault."""

    @staticmethod
    def _huge(proto):
        text = dumps_design(proto)
        text = re.sub("(?m)^a_m = .*$", "a_m = 1e-308", text)
        return loads_design(re.sub("(?m)^aperture_eps_r = .*$", "aperture_eps_r = 1e20", text))

    def test_inband_transmission(self, proto):
        huge = self._huge(proto)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evanescent_gamma(huge, corner_frequency(huge), 10e9) == math.inf
            assert inband_transmission(huge, 10e9).insertion_loss_db == 0.0
            losses = inband_transmission(huge, np.array([1e9, 10e9])).insertion_loss_db
        assert losses.tolist() == [0.0, 0.0]

    def test_filter_response(self, proto):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = filter_response(self._huge(proto), FrequencyGrid((1e9, 10e9)))
        # no loss, up to the rounding of the phase factor
        assert np.abs(table.s21).tolist() == pytest.approx([1.0, 1.0], abs=1e-15)


@given(
    fc=st.one_of(st.floats(5e-307, MAX), st.floats(2.0**490, 2.0**520)),
    f=st.floats(5e-324, MAX),
)
def test_gamma_keeps_the_bits_of_the_plain_product(fc, f):
    """Wherever sqrt((fc - f)(fc + f)) is finite, gamma has its bits, for a
    float corner and for an array of corners; elsewhere it is the closed form,
    found without a floating-point fault."""
    design = prototype_design()
    scale = 2.0 * math.pi * design.aperture_fill.refractive_index / C0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        gamma = float(evanescent_gamma(design, fc, f))
        assert evanescent_gamma(design, np.array([fc, fc]), f).tolist() == [gamma, gamma]
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.maximum(fc - f, 0.0) * (fc + f)
    if np.isfinite(product):
        assert gamma == scale * np.sqrt(product)
    elif f >= fc:
        assert gamma == 0.0
    else:
        halves = math.sqrt(fc - f) * math.sqrt(0.5 * fc + 0.5 * f) * math.sqrt(2.0)
        assert gamma == pytest.approx(scale * halves, rel=1e-14)


def test_a_loss_of_exactly_zero_is_positive_zero(proto):
    # half a metre deep, the field through a hole rounds to nothing
    deep = with_aperture(proto, depth_d=0.5)
    losses = [
        inband_transmission(deep, 1e9).insertion_loss_db,
        *inband_transmission(deep, np.array([1e9, 2e9])).insertion_loss_db.tolist(),
        *aperture_sweep(proto, "depth_d", np.array([0.5, 1.0]), 10e9)[1].tolist(),
        section_attenuation_db(deep, 1e9),
    ]
    assert losses == [0.0] * 6
    assert [math.copysign(1.0, loss) for loss in losses] == [1.0] * 6


# --- one frequency has the bits of the array path -----------------------------
#
# One frequency may be a float, an int, a numpy float or a 0-d array; each
# gives the figure of the same frequency in a one-point array, bit for bit.


def _kinds(f: float) -> list:
    """``f`` as each type one frequency may take; the int only where it
    holds ``f`` exactly."""
    kinds = [f, np.float64(f), np.array(f)]
    return kinds + [int(f)] if f.is_integer() else kinds


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# Corners of the stock aperture, just below and just above 2**500 Hz (a =
# 3.1e-143 and 3e-143 m in PTFE) and near 1e308 Hz (a = 1e-300 m), and
# frequencies as fractions of the corner, from far below it to next to it.
_WIDTHS = [4.0e-3, 3.1e-143, 3e-143, 1e-300]
_BELOW = [1e-12, 1e-3, 0.5, 0.999, 1.0 - 2.0**-52]


def _below_corner(design) -> list[float]:
    """Fixed frequencies below the design's corner, then 400 drawn ones: numpy's
    power loop and the C library's pow differ in about 5 % of values."""
    fc = corner_frequency(design)
    fixed = [fc * share for share in _BELOW] + [float(math.floor(fc * 0.5)) or 1.0, 1.0, 10e9]
    return fixed + (fc * np.random.default_rng(20).uniform(1e-3, 1.0, 400)).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width", _WIDTHS)
def test_one_frequency_has_the_bits_of_the_array_path(proto, width):
    design = with_aperture(proto, width_a=width, depth_d=min(width, proto.aperture.depth_d))
    fc = corner_frequency(design)
    assert (fc < 2.0**500) == (width > 3e-143)
    for f in _below_corner(design):
        if not f < fc:
            continue
        gamma = evanescent_gamma(design, fc, np.array([f]))[0]
        loss = inband_transmission(design, np.array([f])).insertion_loss_db[0]
        depth = min_depth_for_budget(design, np.array([f]), 0.1)[0]
        for one in _kinds(f):
            assert _bits(evanescent_gamma(design, fc, one)) == _bits(gamma), (f, type(one))
            assert _bits(inband_transmission(design, one).insertion_loss_db) == _bits(loss), (f, type(one))
            assert _bits(min_depth_for_budget(design, one, 0.1)) == _bits(depth), (f, type(one))


@given(share=st.floats(5e-324, 1.0, exclude_max=True), width=st.sampled_from(_WIDTHS))
def test_any_one_frequency_below_the_corner_has_the_bits_of_the_array_path(share, width):
    design = with_aperture(prototype_design(), width_a=width)
    fc = corner_frequency(design)
    f = share * fc
    if not 0.0 < f < fc:
        return
    loss = inband_transmission(design, np.array([f])).insertion_loss_db[0]
    assert _bits(inband_transmission(design, f).insertion_loss_db) == _bits(loss)
    gamma = evanescent_gamma(design, fc, np.array([f]))[0]
    assert _bits(evanescent_gamma(design, fc, f)) == _bits(gamma)


def test_one_frequency_gamma_is_a_numpy_float(proto):
    # the arithmetic that follows warns as numpy's does
    assert type(evanescent_gamma(proto, corner_frequency(proto), 10e9)) is np.float64
