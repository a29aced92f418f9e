import cmath
import math
from dataclasses import replace

import pytest

from herd import (
    C0,
    DomainError,
    FrequencyGrid,
    Provenance,
    TwoPort,
    attenuation_vs_sections,
    calibrate_kappa,
    corner_frequency,
    filter_response,
    inband_transmission,
)

IDENTITY = TwoPort(s11=0j, s12=1 + 0j, s21=1 + 0j, s22=0j)


def _att_db(port: TwoPort) -> float:
    return -20.0 * math.log10(abs(port.s21))


def _section(design, f, **kwargs) -> TwoPort:
    """Two-port of one section at ``f``: the one-section filter on a one-point grid."""
    table = filter_response(replace(design, sections=1), FrequencyGrid((f,)), **kwargs)
    return table.entries[0]


class TestTwoPort:
    def test_passivity_check(self):
        assert IDENTITY.is_passive()
        hot = TwoPort(s11=0j, s12=1.5 + 0j, s21=1.5 + 0j, s22=0j)
        assert not hot.is_passive()


class TestSectionTwoPort:
    def test_inband_per_section_loss(self, proto):
        port = _section(proto, 10e9)
        assert _att_db(port) == pytest.approx(0.0318, abs=0.001)

    def test_matches_leakage_slice(self, proto):
        port = _section(proto, 10e9)
        single = replace(proto, sections=1)
        assert _att_db(port) == pytest.approx(
            inband_transmission(single, 10e9).insertion_loss_db, rel=1e-9
        )

    def test_stopband_with_nominal_kappa(self, proto):
        design = replace(proto, stopband_kappa=0.35)
        port = _section(design, 70e9)
        assert _att_db(port) == pytest.approx(15.0, abs=0.1)

    def test_stopband_with_default_kappa(self, proto):
        port = _section(proto, 70e9)
        assert _att_db(port) == pytest.approx(15.0, abs=0.001)

    def test_blend_midpoint_at_corner(self, proto):
        fc = corner_frequency(proto)
        port = _section(proto, fc)
        t_above = (1.0 - proto.stopband_kappa) ** proto.apertures_per_section
        # below-cutoff transmission vanishes at the corner, so the midpoint
        # of the blend is half the stopband value
        assert abs(port.s21) ** 2 == pytest.approx(0.5 * t_above, rel=1e-12)

    def test_phase_is_line_delay(self, proto):
        f = 5e9
        port = _section(proto, f)
        expected = -2 * math.pi * f * proto.section_pitch / C0
        assert cmath.phase(port.s21) == pytest.approx(
            math.remainder(expected, 2 * math.pi), rel=1e-9
        )

    def test_matched_and_reciprocal(self, proto):
        for f in (1e9, 10e9, corner_frequency(proto), 40e9, 145e9):
            port = _section(proto, f)
            assert port.s11 == 0j and port.s22 == 0j
            assert port.s12 == port.s21
            assert port.is_passive()

    def test_return_loss_floor(self, proto):
        port = _section(proto, 10e9, return_loss_floor_db=-20.0)
        assert abs(port.s11) == pytest.approx(0.1, rel=1e-12)
        assert port.is_passive()
        assert port.s12 == port.s21
        with pytest.raises(DomainError):
            _section(proto, 10e9, return_loss_floor_db=3.0)

    def test_rejects_nonpositive_frequency(self, proto):
        with pytest.raises(DomainError):
            _section(proto, 0.0)


class TestFilterResponse:
    def test_single_section_equals_section(self, proto):
        # each point of a grid is the one-point response at that frequency
        single = replace(proto, sections=1)
        grid = FrequencyGrid.linear(1e9, 100e9, 7)
        table = filter_response(single, grid)
        for f, port in zip(grid, table.entries):
            assert port == _section(single, f)
        assert table.provenance is Provenance.MODEL

    def test_stopband_attenuation(self, proto):
        grid = FrequencyGrid.linear(70e9, 145e9, 100)
        table = filter_response(proto, grid)
        assert min(_att_db(p) for p in table.entries) >= 60.0

    def test_inband_loss_five_gigahertz(self, proto):
        # Eq-style additive leakage at 5 GHz: frozen independent evaluation
        # gives 0.07941 dB, comfortably inside the 0.15 dB bound.
        table = filter_response(proto, FrequencyGrid((5e9, 10e9)))
        assert _att_db(table.entries[0]) == pytest.approx(0.079412, abs=1e-4)
        assert _att_db(table.entries[0]) <= 0.15
        assert _att_db(table.entries[1]) == pytest.approx(0.127268, abs=1e-4)

    def test_attenuation_linear_in_sections(self, proto):
        grid = FrequencyGrid((10e9, 70e9))
        one = filter_response(replace(proto, sections=1), grid)
        four = filter_response(proto, grid)
        for p1, p4 in zip(one.entries, four.entries):
            assert _att_db(p4) == pytest.approx(4 * _att_db(p1), abs=1e-9)

    def test_magnitude_independent_of_pitch(self, proto):
        # pitch enters the phase only; magnitudes agree to complex rounding
        grid = FrequencyGrid.linear(1e9, 145e9, 25)
        base = filter_response(proto, grid)
        stretched = filter_response(replace(proto, section_pitch=0.025), grid)
        for p1, p2 in zip(base.entries, stretched.entries):
            assert abs(p1.s21) == pytest.approx(abs(p2.s21), rel=1e-14)

    def test_all_entries_passive_reciprocal(self, proto):
        grid = FrequencyGrid.logarithmic(1e8, 145e9, 40)
        for port in filter_response(proto, grid).entries:
            assert port.is_passive()
            assert port.s12 == port.s21


class TestAttenuationVsSections:
    def test_stock_ladder(self, proto):
        ladder = attenuation_vs_sections(proto, 70e9, 4)
        counts = [n for n, _ in ladder]
        values = [a for _, a in ladder]
        assert counts == [1, 2, 3, 4]
        assert values == pytest.approx([15.0, 30.0, 45.0, 60.0], abs=0.1)

    def test_single_section_matches_section_value(self, proto):
        (count, att), = attenuation_vs_sections(proto, 40e9, 1)
        assert count == 1
        assert att == pytest.approx(_att_db(_section(proto, 40e9)), abs=1e-12)

    def test_constant_differences(self, proto):
        for f in (40e9, 60e9, 70e9):
            values = [a for _, a in attenuation_vs_sections(proto, f, 8)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert max(diffs) - min(diffs) <= 1e-9

    def test_rows_are_count_times_one_section(self, proto):
        for f in (10e9, 40e9, 70e9, 145e9):
            ladder = attenuation_vs_sections(proto, f, 600)
            first = ladder[0][1]
            for count, att in ladder:
                assert math.isfinite(att)
                assert att == pytest.approx(count * first, rel=1e-12)

    def test_invalid_count(self, proto):
        with pytest.raises(DomainError):
            attenuation_vs_sections(proto, 70e9, 0)

    def test_invalid_frequency_and_zero_transmission(self, proto):
        for f in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                attenuation_vs_sections(proto, f, 3)
        drained = replace(proto, stopband_kappa=1.0)
        with pytest.raises(DomainError):
            attenuation_vs_sections(drained, 300e9, 3)


class TestCalibrateKappa:
    def test_headline_value(self, proto):
        assert calibrate_kappa(proto, 60.0) == pytest.approx(0.3505, abs=0.001)

    def test_zero_target(self, proto):
        assert calibrate_kappa(proto, 0.0) == 0.0

    def test_negative_target_rejected(self, proto):
        with pytest.raises(DomainError):
            calibrate_kappa(proto, -3.0)

    def test_more_sections_need_less_drain(self, proto):
        k4 = calibrate_kappa(proto, 60.0)
        k8 = calibrate_kappa(replace(proto, sections=8), 60.0)
        assert k8 < k4

    def test_round_trip_to_target(self, proto):
        kappa = calibrate_kappa(proto, 60.0)
        design = replace(proto, stopband_kappa=kappa)
        ladder = attenuation_vs_sections(design, 70e9, proto.sections)
        assert ladder[-1][1] == pytest.approx(60.0, abs=1e-9)
