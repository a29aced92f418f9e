import cmath
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from herd import (
    AIR,
    C0,
    PTFE,
    DesignSpec,
    DomainError,
    DominantModeAxis,
    FrequencyGrid,
    Material,
    Provenance,
    TwoPort,
    attenuation_vs_sections,
    calibrate_kappa,
    corner_frequency,
    filter_response,
    inband_transmission,
    loads_design_spec,
    min_depth_for_budget,
    prototype_design,
    synthesize,
)
from herd import cascade, model
from herd.cascade import section_attenuation_db
from herd.leakage import evanescent_gamma

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

IDENTITY = TwoPort(s11=0j, s12=1 + 0j, s21=1 + 0j, s22=0j)


def _passive(port: TwoPort) -> bool:
    return cascade.max_singular_value(port.s11, port.s12, port.s21, port.s22) <= 1.0 + 1e-9


def _att_db(port: TwoPort) -> float:
    return -20.0 * math.log10(abs(port.s21))


def _section(design, f) -> TwoPort:
    """Two-port of one section at ``f``: the one-section filter on a one-point grid."""
    (port,) = filter_response(replace(design, sections=1), FrequencyGrid((f,))).entries
    return port


def _designs():
    proto = prototype_design()
    yield "stock", proto
    yield "stock-height-axis", replace(proto, dominant_mode_axis=DominantModeAxis.HEIGHT)
    specs = [
        DesignSpec(50.0, 10e9, 0.15, 25.3e9, 60.0, PTFE, AIR),
        DesignSpec(40.0, 2e9, 0.05, 6e9, 30.0, AIR, AIR),
        DesignSpec(75.0, 15e9, 0.5, 40e9, 120.0, Material(eps_r=3.0), Material(eps_r=2.1), 12),
    ]
    for i, spec in enumerate(specs):
        yield f"synthesized-{i}", synthesize(spec).design


DESIGNS = dict(_designs())

# A valid design whose stopband drain underflows: (1 - kappa)**21 = 2**-1113
# rounds to 0, so far above the corner one section transmits exactly nothing.
DRAINED = replace(prototype_design(), stopband_kappa=1.0 - 2.0**-53, apertures_per_section=21)

# Invalid designs and the field that validate() names first for each.
INVALID = [
    ({"sections": 0}, "sections"),
    ({"sections": -3}, "sections"),
    ({"stopband_kappa": 1.5, "apertures_per_section": 7}, "stopband_kappa"),
    ({"stopband_kappa": 0.0}, "stopband_kappa"),
    ({"apertures_per_section": 0}, "apertures_per_section"),
    ({"section_pitch": math.nan}, "section_pitch"),
]

ENTRY_POINTS = {
    "filter_response": lambda design: filter_response(design, FrequencyGrid((10e9, 70e9))),
    "attenuation_vs_sections": lambda design: attenuation_vs_sections(design, 70e9, 4),
    "inband_transmission": lambda design: inband_transmission(design, 10e9),
    "evanescent_amplitude": lambda design: math.exp(
        -evanescent_gamma(design, corner_frequency(design), 10e9) * design.aperture.depth_d
    ),
    "min_depth_for_budget": lambda design: min_depth_for_budget(design, 10e9, 0.15),
    "calibrate_kappa": lambda design: calibrate_kappa(design, 60.0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("changes, field", INVALID)
def test_model_entry_points_reject_invalid_designs(proto, entry, changes, field):
    # Building the design raises, so no entry point is handed an invalid one.
    with pytest.raises(DomainError, match=field) as err:
        ENTRY_POINTS[entry](replace(proto, **changes))
    assert str(err.value) == "; ".join(model.validate(SimpleNamespace(**{**vars(proto), **changes})))


@pytest.fixture
def part_checks(monkeypatch):
    """Names of the model's part checks, one per call. A part runs its
    check when it is built, and only then."""
    calls = []
    for name in ("material_violations", "coax_violations", "aperture_violations"):
        original = getattr(model, name)

        def counted(part, name=name, original=original):
            calls.append(name)
            return original(part)

        monkeypatch.setattr(model, name, counted)
    return calls


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_part_check_per_model_call(proto, part_checks, entry):
    ENTRY_POINTS[entry](proto)
    assert part_checks == []


def test_aperture_checks_per_synthesis(part_checks):
    spec = loads_design_spec((CONFIGS / "reference_targets.spec").read_text())
    assert part_checks.count("material_violations") == 2  # the spec file's two fills
    part_checks.clear()
    synthesize(spec)
    # the coax radius solve builds one coax; the draft's aperture and the
    # one with the final depth are the two apertures
    assert part_checks == ["coax_violations", "aperture_violations", "aperture_violations"]


class TestTwoPort:
    def test_passivity_check(self):
        assert _passive(IDENTITY)
        hot = TwoPort(s11=0j, s12=1.5 + 0j, s21=1.5 + 0j, s22=0j)
        assert not _passive(hot)


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
            assert _passive(port)

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
        at_5ghz, at_10ghz = table.entries
        assert _att_db(at_5ghz) == pytest.approx(0.079412, abs=1e-4)
        assert _att_db(at_5ghz) <= 0.15
        assert _att_db(at_10ghz) == pytest.approx(0.127268, abs=1e-4)

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
            assert _passive(port)
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
        cases = [(proto, f) for f in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 0)]
        for design, f in cases + [(DRAINED, 300e9)]:
            # the same message as the one-section response on a one-point grid
            with pytest.raises(DomainError) as want:
                _section(design, f)
            with pytest.raises(DomainError) as got:
                attenuation_vs_sections(design, f, 3)
            assert str(got.value) == str(want.value)
        assert "zero transmission" in str(got.value)

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    @pytest.mark.parametrize("over_corner", [1e-3, 0.3, 0.9, 0.97, 0.999, 1.0, 1.001, 1.05, 1.3, 10.0])
    def test_matches_one_section_response(self, name, over_corner):
        # deep in band, across the blend band, exactly at the corner and above
        design = DESIGNS[name]
        f = over_corner * corner_frequency(design)
        want = _att_db(_section(design, f))
        ladder = attenuation_vs_sections(design, f, 600)
        assert [count for count, _ in ladder] == list(range(1, 601))
        for count, att in ladder:
            assert type(att) is float
            assert att == pytest.approx(count * want, rel=1e-12)

    def test_builds_no_grid_table_or_response(self, proto, monkeypatch):
        built = []

        def counted(name, wrapped):
            def call(*args, **kwargs):
                built.append(name)
                return wrapped(*args, **kwargs)

            return call

        monkeypatch.setattr(model.FrequencyGrid, "__post_init__",
                            counted("FrequencyGrid", model.FrequencyGrid.__post_init__))
        monkeypatch.setattr(cascade.SParamTable, "__init__",
                            counted("SParamTable", cascade.SParamTable.__init__))
        monkeypatch.setattr(cascade, "filter_response", counted("filter_response", cascade.filter_response))
        attenuation_vs_sections(proto, 70e9, 4)
        attenuation_vs_sections(proto, 10e9, 4)
        assert built == []
        # the counters see the one-section response the ladder replaced
        cascade.filter_response(replace(proto, sections=1), FrequencyGrid((70e9,)))
        assert built == ["FrequencyGrid", "filter_response", "SParamTable"]


class TestSectionPower:
    def test_one_frequency_has_the_bits_of_the_same_frequency_in_a_grid(self, proto):
        # Below the corner t_below = (1 - amp**2)**8 is raised by np.power,
        # whose loop is the same for one value as for an array.
        rng = np.random.default_rng(20)
        fc = corner_frequency(proto)
        f = rng.uniform(1e8, 0.999 * fc, 2000)
        grid_power = cascade._section_power(proto, fc, f)
        one_power = [cascade._section_power(proto, fc, x) for x in f.tolist()]
        assert np.array_equal(np.array(one_power), grid_power)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width", [4.0e-3, 3.1e-143, 3e-143, 1e-300, 1e306])
    def test_one_frequency_of_any_type_has_the_bits_of_the_array_path(self, proto, width):
        # Corners from 1.5e-305 Hz (a = 1e306 m in eps_r = 1e14) through the
        # stock 25 GHz to either side of 2**500 Hz and near 1e308 Hz. A
        # frequency is a float, an int, a numpy float or a 0-d array, far
        # below, next to and above the corner.
        fill = Material(1e14) if width > 1.0 else proto.aperture_fill
        design = replace(proto, aperture=model.RectAperture(width, 5e-3, min(width, 4.85e-3)),
                         aperture_fill=fill)
        fc = corner_frequency(design)
        shares = [1e-9, 0.5, 0.95, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.05, 2.0, 1e3, 1e300]
        freqs = [f for f in [fc * share for share in shares] + [1.0, 10e9, 1e30] if f < math.inf]
        for f in freqs:
            power = cascade._section_power(design, fc, np.array([f]))
            att = float(-10.0 * np.log10(power[0])) + 0.0
            kinds = [f, np.float64(f), np.array(f)] + ([int(f)] if f.is_integer() else [])
            for one in kinds:
                got = (cascade._section_power(design, fc, one), section_attenuation_db(design, one))
                assert [np.float64(x).tobytes() for x in got] == [power[0].tobytes(), np.float64(att).tobytes()]

    @pytest.mark.filterwarnings("error")
    def test_far_above_a_tiny_corner_the_blend_does_not_overflow(self, proto):
        # Corner 1.5e-305 Hz: (f - fc) times the blend's scale would exceed
        # the float range at 1e30 Hz. The weight there is 1.
        design = replace(proto, aperture=model.RectAperture(1e306, 1e-3, 1e-3),
                         aperture_fill=Material(1e14))
        fc = corner_frequency(design)
        table = filter_response(design, FrequencyGrid((fc, 1e30)))
        t_above = (1.0 - design.stopband_kappa) ** design.apertures_per_section
        assert np.abs(table.s21[1]) ** 2 == pytest.approx(t_above**design.sections, rel=1e-12)
        assert cascade._section_power(design, fc, 1e30) == t_above


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
