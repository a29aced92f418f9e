import math
from dataclasses import replace

import pytest

from herd import (
    AIR,
    DesignSpec,
    InfeasibleDesignError,
    Material,
    ParseError,
    coax_char_impedance,
    corner_frequency,
    dumps_design_spec,
    loads_design_spec,
    octagon_face_width,
    per_section_attenuation_db,
    synthesize,
    verify,
)

PTFE_LIKE = Material(eps_r=2.2)


def headline_spec() -> DesignSpec:
    return DesignSpec(
        z0=50.0,
        f_passband_top=10e9,
        passband_il_budget_db=0.15,
        f_stopband_start=25.3e9,
        stopband_min_attenuation_db=60.0,
        aperture_fill=PTFE_LIKE,
        coax_fill=AIR,
        apertures_per_section=8,
    )


class TestSynthesize:
    def test_headline_targets_recover_stock_family(self):
        report = synthesize(headline_spec())
        design = report.design
        assert design.aperture.width_a == pytest.approx(4.0e-3, abs=0.1e-3)
        assert design.aperture.height_b == pytest.approx(1.25 * design.aperture.width_a, rel=1e-12)
        assert design.sections == 4
        assert 4.5e-3 <= design.aperture.depth_d <= 5.2e-3
        assert report.margin_passband_db >= 0.0
        assert report.margin_stopband_db >= 0.0
        assert report.total_length == design.sections * design.section_pitch

    def test_impedance_and_corner_match_targets(self):
        spec = headline_spec()
        design = synthesize(spec).design
        assert coax_char_impedance(design.coax, design.coax_fill) == pytest.approx(
            spec.z0, rel=1e-3
        )
        assert corner_frequency(design) == pytest.approx(spec.f_stopband_start, rel=1e-3)

    def test_single_section_floor(self):
        spec = replace(headline_spec(), stopband_min_attenuation_db=15.0)
        assert synthesize(spec).design.sections == 1

    def test_per_section_attenuation_default(self):
        assert per_section_attenuation_db(8) == pytest.approx(15.0, abs=0.001)

    def test_tightening_budget_only_deepens_apertures(self):
        loose = synthesize(headline_spec()).design
        tight = synthesize(replace(headline_spec(), passband_il_budget_db=0.05)).design
        assert tight.aperture.depth_d > loose.aperture.depth_d
        assert tight.aperture.width_a == loose.aperture.width_a
        assert tight.coax == loose.coax
        assert tight.sections == loose.sections

    def test_stopband_below_passband_infeasible(self):
        spec = replace(headline_spec(), f_stopband_start=5e9)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(spec)
        assert "f_stopband_start" in str(err.value)

    def test_oversized_aperture_infeasible(self):
        # air-filled apertures just above the passband need a 13.6 mm width,
        # far beyond the 5.5 mm octagon face
        spec = replace(headline_spec(), f_stopband_start=11e9, aperture_fill=AIR)
        with pytest.raises(InfeasibleDesignError) as err:
            synthesize(spec)
        assert "face" in str(err.value)

    def test_face_width_helper(self):
        assert octagon_face_width(1.0) == pytest.approx(2 * math.tan(math.pi / 8), rel=1e-12)


class TestVerify:
    def test_closure(self):
        report = synthesize(headline_spec())
        again = verify(report.design, headline_spec())
        assert again.margin_passband_db >= 0.0
        assert again.margin_stopband_db >= 0.0

    def test_stock_design_meets_headline_targets(self, proto):
        report = verify(proto, headline_spec())
        assert report.margin_passband_db >= 0.0
        assert report.margin_stopband_db >= 0.0

    def test_removing_a_section_breaks_the_stopband(self):
        report = synthesize(headline_spec())
        shrunk = replace(report.design, sections=report.design.sections - 1)
        assert verify(shrunk, headline_spec()).margin_stopband_db < 0.0

    def test_negative_margins_reported_not_raised(self, proto):
        # corner below the requested passband top: in-band model blows up,
        # margin goes to -inf, nothing raises
        spec = replace(headline_spec(), f_passband_top=30e9, f_stopband_start=40e9)
        report = verify(proto, spec)
        assert report.margin_passband_db == -math.inf


class TestSpecFile:
    def test_round_trip(self):
        spec = headline_spec()
        reloaded = loads_design_spec(dumps_design_spec(spec, header="targets"))
        assert reloaded == spec

    def test_defaults(self):
        text = (
            "z0_ohm = 50\nf_passband_top_hz = 10e9\npassband_il_budget_db = 0.15\n"
            "f_stopband_start_hz = 25.3e9\nstopband_min_attenuation_db = 60\n"
        )
        spec = loads_design_spec(text)
        assert spec.aperture_fill == AIR
        assert spec.coax_fill == AIR
        assert spec.apertures_per_section == 8

    def test_missing_key_named(self):
        with pytest.raises(ParseError) as err:
            loads_design_spec("z0_ohm = 50\n")
        assert "f_passband_top_hz" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            loads_design_spec("z0_ohm = 50\nripple_db = 0.1\n")
