import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    DomainError,
    FrequencyGrid,
    corner_frequency,
    evanescent_amplitude,
    inband_transmission,
    min_depth_for_budget,
    mismatch_loss_db,
    prototype_design,
    with_aperture,
)


class TestEvanescentAmplitude:
    def test_stock_at_10ghz(self, proto):
        assert evanescent_amplitude(proto, 10e9) == pytest.approx(0.0302, abs=0.0005)

    def test_zero_depth_limit(self, proto):
        shallow = with_aperture(proto, depth_d=1e-12)
        assert evanescent_amplitude(shallow, 10e9) == pytest.approx(1.0, abs=1e-8)

    def test_decreasing_in_depth(self, proto):
        depths = [1e-3, 2e-3, 4e-3, 8e-3]
        amps = [evanescent_amplitude(with_aperture(proto, depth_d=d), 10e9) for d in depths]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_increasing_in_frequency(self, proto):
        freqs = [2e9, 5e9, 10e9, 15e9, 20e9]
        amps = [evanescent_amplitude(proto, f) for f in freqs]
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_rejected_at_and_above_corner(self, proto):
        fc = corner_frequency(proto)
        with pytest.raises(DomainError):
            evanescent_amplitude(proto, fc)
        with pytest.raises(DomainError):
            evanescent_amplitude(proto, 1.5 * fc)


class TestInbandTransmission:
    def test_stock_loss_at_10ghz(self, proto):
        breakdown = inband_transmission(proto, 10e9)
        assert breakdown.insertion_loss_db == pytest.approx(0.127, abs=0.005)
        assert breakdown.insertion_loss_db <= 0.15

    def test_breakdown_self_consistent(self, proto):
        b = inband_transmission(proto, 10e9)
        assert b.total_transmission == (1.0 - b.per_aperture_leak_power) ** proto.total_apertures
        assert b.insertion_loss_db == -10.0 * math.log10(b.total_transmission)
        assert b.frequency == 10e9

    def test_single_aperture(self, proto):
        single = replace(proto, sections=1, apertures_per_section=1)
        amp = evanescent_amplitude(single, 10e9)
        assert inband_transmission(single, 10e9).total_transmission == 1.0 - amp * amp

    def test_doubling_sections_squares_transmission(self, proto):
        doubled = replace(proto, sections=2 * proto.sections)
        t1 = inband_transmission(proto, 10e9).total_transmission
        t2 = inband_transmission(doubled, 10e9).total_transmission
        assert t2 == pytest.approx(t1 * t1, rel=1e-12)

    def test_underflowing_transmission_is_infinite_loss(self, proto):
        vanishing = with_aperture(proto, depth_d=1e-15)
        point = inband_transmission(vanishing, 10e9)
        assert point.total_transmission == 0.0
        assert point.insertion_loss_db == math.inf
        curve = inband_transmission(vanishing, np.array([1e9, 10e9]))
        assert curve.insertion_loss_db.tolist() == [math.inf, math.inf]

    @given(f=st.floats(min_value=1e8, max_value=25e9))
    def test_transmission_in_unit_interval(self, f):
        design = prototype_design()
        if f >= corner_frequency(design):
            return
        b = inband_transmission(design, f)
        assert 0.0 < b.total_transmission <= 1.0
        assert b.insertion_loss_db >= 0.0


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
        np.testing.assert_array_equal(curve.frequency, grid.f)

    def test_single_point_reduces_to_transmission(self, proto):
        curve = inband_transmission(proto, FrequencyGrid((10e9,)).f)
        point = inband_transmission(proto, 10e9)
        for name in ("frequency", "per_aperture_leak_power", "total_transmission", "insertion_loss_db"):
            assert getattr(curve, name).tolist() == [getattr(point, name)]

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
