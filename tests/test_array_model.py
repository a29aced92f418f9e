"""The array forward model against a scalar per-point reference.

``_scalar_section`` and ``_scalar_cascade`` keep the per-frequency-point
section math and the T-matrix chaining that ``filter_response`` evaluated
point by point before the model became array expressions. The array model
must agree with them to 1e-12 relative and raise wherever they raise.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    C0,
    DomainError,
    DominantModeAxis,
    FrequencyGrid,
    ParseError,
    Provenance,
    SParamTable,
    TwoPort,
    corner_frequency,
    dumps_design,
    filter_response,
    parse_touchstone,
    rect_gamma,
)
from herd.cascade import DEFAULT_TRANSITION_WIDTH
from herd.cli import main
from herd.modes import dominant_mode_index

REL = 1e-12
SHARPNESS = 2.0 * math.log(99.0)


# --- scalar reference --------------------------------------------------------


def _scalar_section(design, f, transition_width, return_loss_floor_db):
    if not (math.isfinite(f) and f > 0.0):
        raise DomainError(f"frequency must be finite and > 0 (got {f!r})")
    if not 0.0 < transition_width < 1.0:
        raise DomainError(f"transition width must lie in (0, 1) (got {transition_width!r})")
    fc = corner_frequency(design)
    n_ap = design.apertures_per_section

    if f < fc:
        index = dominant_mode_index(design)
        gamma = rect_gamma(index, design.aperture, design.aperture_fill, f).real
        amp = math.exp(-gamma * design.aperture.depth_d)
        t_below = (1.0 - amp * amp) ** n_ap
    else:
        t_below = 0.0
    t_above = (1.0 - design.stopband_kappa) ** n_ap

    arg = SHARPNESS * (f - fc) / (transition_width * fc)
    if arg <= -700.0:
        weight = 0.0
    elif arg >= 700.0:
        weight = 1.0
    else:
        weight = 1.0 / (1.0 + math.exp(-arg))
    t_power = (1.0 - weight) * t_below + weight * t_above

    n_coax = design.coax_fill.refractive_index
    phase = cmath.exp(-2j * math.pi * f * design.section_pitch * n_coax / C0)
    if return_loss_floor_db is None:
        s21 = math.sqrt(t_power) * phase
        s11 = 0j
    else:
        if not (math.isfinite(return_loss_floor_db) and return_loss_floor_db < 0.0):
            raise DomainError(f"return-loss floor must be finite and < 0 dB ({return_loss_floor_db!r})")
        refl = 10.0 ** (return_loss_floor_db / 20.0)
        s21 = math.sqrt((1.0 - refl * refl) * t_power) * phase
        s11 = 1j * refl * phase
    return TwoPort(s11=s11, s12=s21, s21=s21, s22=s11)


def _scalar_cascade(ports):
    for port in ports:
        if port.s21 == 0:
            raise DomainError("cannot cascade a two-port with zero transmission (s21 = 0)")
    if len(ports) == 1:
        return ports[0]
    t11, t12, t21, t22 = complex(1.0), complex(0.0), complex(0.0), complex(1.0)
    for port in ports:
        p11 = (port.s12 * port.s21 - port.s11 * port.s22) / port.s21
        p12 = port.s11 / port.s21
        p21 = -port.s22 / port.s21
        p22 = 1.0 / port.s21
        t11, t12, t21, t22 = (
            t11 * p11 + t12 * p21,
            t11 * p12 + t12 * p22,
            t21 * p11 + t22 * p21,
            t21 * p12 + t22 * p22,
        )
    s21 = 1.0 / t22
    return TwoPort(s11=t12 / t22, s12=s21, s21=s21, s22=-t21 / t22)


def _scalar_response(
    design, grid, transition_width=DEFAULT_TRANSITION_WIDTH, return_loss_floor_db=None
):
    sections = design.sections
    return [
        _scalar_cascade([_scalar_section(design, f, transition_width, return_loss_floor_db)] * sections)
        for f in grid
    ]


def _assert_agrees(design, grid, **kwargs):
    table = filter_response(design, grid, **kwargs)
    expected = _scalar_response(design, grid, **kwargs)
    assert len(table.entries) == len(expected)
    for got, want in zip(table.entries, expected):
        for name in ("s11", "s12", "s21", "s22"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= REL * abs(b), (name, a, b)
    return table


# --- agreement ---------------------------------------------------------------


@pytest.mark.parametrize("floor", [None, -20.0])
@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize("sections", [1, 4, 7])
def test_agrees_with_scalar_reference(proto, floor, spacing, sections):
    design = replace(proto, sections=sections)
    make = FrequencyGrid.linear if spacing == "linear" else FrequencyGrid.logarithmic
    # up to 300 GHz: past the +700 clamp of the blend, which starts near 218 GHz
    _assert_agrees(design, make(1e8, 300e9, 997), return_loss_floor_db=floor)


@pytest.mark.parametrize("floor", [None, -20.0])
def test_height_axis_agrees(proto, floor):
    design = replace(proto, dominant_mode_axis=DominantModeAxis.HEIGHT)
    _assert_agrees(design, FrequencyGrid.linear(1e8, 145e9, 501), return_loss_floor_db=floor)


def test_blend_band_and_exact_corner(proto):
    fc = corner_frequency(proto)
    points = sorted(set(np.linspace(0.9 * fc, 1.1 * fc, 201).tolist()) | {fc})
    table = _assert_agrees(proto, FrequencyGrid(tuple(points)))
    at_corner = table.entries[points.index(fc)]
    t_above = (1.0 - proto.stopband_kappa) ** proto.apertures_per_section
    assert abs(at_corner.s21) ** 2 == pytest.approx((0.5 * t_above) ** proto.sections, rel=1e-12)


def test_below_lower_clamp(proto):
    # a narrow transition puts arg <= -700 below about 0.24 fc
    fc = corner_frequency(proto)
    grid = FrequencyGrid.linear(0.01 * fc, 0.5 * fc, 301)
    _assert_agrees(proto, grid, transition_width=0.01)
    _assert_agrees(proto, grid, transition_width=0.01, return_loss_floor_db=-30.0)


# --- errors ------------------------------------------------------------------


def _both_raise(design, grid, **kwargs):
    with pytest.raises(DomainError):
        _scalar_response(design, grid, **kwargs)
    with pytest.raises(DomainError):
        filter_response(design, grid, **kwargs)


@pytest.mark.parametrize("width", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_transition_width_outside_unit_interval(proto, width):
    _both_raise(proto, FrequencyGrid.linear(1e9, 100e9, 5), transition_width=width)


@pytest.mark.parametrize("floor", [0.0, 3.0, math.inf, math.nan])
def test_return_loss_floor_not_negative(proto, floor):
    _both_raise(proto, FrequencyGrid.linear(1e9, 100e9, 5), return_loss_floor_db=floor)


@pytest.mark.parametrize("sections", [1, 2, 4])
@pytest.mark.parametrize("floor", [None, -20.0])
def test_zero_transmission(proto, sections, floor):
    # kappa = 1 drains everything above the corner; past the +700 clamp the
    # blend weight is exactly 1, so s21 is exactly 0 there
    drained = replace(proto, stopband_kappa=1.0, sections=sections)
    _both_raise(drained, FrequencyGrid.linear(1e9, 300e9, 40), return_loss_floor_db=floor)


# --- CLI ---------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json", "touchstone"])
def test_analyze_output_byte_identical_over_reruns(tmp_path, capsys, proto, fmt):
    design = tmp_path / "stock.design"
    design.write_text(dumps_design(proto))
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.{fmt}"
        code = main(
            ["analyze", "--design", str(design), "--points", "3001", "--log", "--format", fmt,
             "--claims", "default", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# --- tables ------------------------------------------------------------------


def test_table_from_entries_and_back():
    grid = FrequencyGrid((1e9, 2e9, 3e9))
    ports = tuple(
        TwoPort(s11=0.1j * k, s12=0.9 - 0.1j * k, s21=0.8 + 0.05j * k, s22=-0.2 * k, z0=75.0)
        for k in range(3)
    )
    table = SParamTable(grid=grid, entries=ports, provenance=Provenance.MEASURED)
    assert table.z0 == 75.0
    assert tuple(table.entries) == ports
    assert table.entries[1] == ports[1] and table.entries[-1] == ports[-1]
    assert len(table.entries) == 3
    np.testing.assert_array_equal(table.f, [1e9, 2e9, 3e9])
    np.testing.assert_array_equal(table.s12, [p.s12 for p in ports])
    with pytest.raises(ValueError):
        table.s21[0] = 0j


def test_table_rejects_mixed_impedance_and_wrong_length():
    grid = FrequencyGrid((1e9, 2e9))
    port = TwoPort(s11=0j, s12=1 + 0j, s21=1 + 0j, s22=0j)
    with pytest.raises(DomainError):
        mixed = (port, replace(port, z0=75.0))
        SParamTable(grid=grid, entries=mixed, provenance=Provenance.MEASURED)
    with pytest.raises(DomainError):
        SParamTable(grid=grid, entries=(port,), provenance=Provenance.MEASURED)


# --- Touchstone input checks -------------------------------------------------


@pytest.mark.parametrize("impedance", ["-50", "0", "nan", "inf", "-inf"])
def test_reference_impedance_must_be_finite_and_positive(impedance):
    text = f"! note\n# HZ S RI R {impedance}\n1e9 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 2


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
@pytest.mark.parametrize("column", [0, 1, 4, 8])
def test_non_finite_data_rejected_with_line(token, column):
    row = ["2e9", "0", "0", "1", "0", "1", "0", "0", "0"]
    row[column] = token
    text = "# HZ S RI R 50\n1e9 0 0 1 0 1 0 0 0\n\n" + " ".join(row) + "\n3e9 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 4


def test_frequency_overflowing_its_unit_rejected():
    text = "# GHZ S RI R 50\n1 0 0 1 0 1 0 0 0\n1e300 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 3


@pytest.mark.parametrize("first", ["0", "-1"])
def test_non_positive_frequency_rejected_with_line(first):
    text = f"# HZ S RI R 50\n{first} 0 0 1 0 1 0 0 0\n1e9 0 0 1 0 1 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 2


def test_first_bad_row_is_reported():
    text = (
        "# HZ S RI R 50\n1e9 0 0 1 0 1 0 0 0\n"
        "2e9 0 0 nan 0 1 0 0 0\n1e9 0 0 1 0 1 0 0 0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 3
    text = (
        "# HZ S RI R 50\n2e9 0 0 1 0 1 0 0 0\n"
        "1e9 0 0 1 0 1 0 0 0\n3e9 0 0 inf 0 1 0 0 0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 3
    assert "(2000000000.0 Hz -> 1000000000.0 Hz)" in str(err.value)


# --- closed-form singular value ----------------------------------------------

_entry = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@given(s11=_entry, s12=_entry, s21=_entry, s22=_entry)
def test_max_singular_value_matches_svd(s11, s12, s21, s22):
    port = TwoPort(s11=s11, s12=s12, s21=s21, s22=s22)
    expected = np.linalg.svd(np.array([[s11, s12], [s21, s22]]), compute_uv=False)[0]
    got = port.max_singular_value()
    assert abs(got - expected) <= 1e-12 * expected


def test_max_singular_value_of_scaled_unitary():
    # equal singular values: the form without cancellation stays exact
    for scale in (1e-200, 0.7, 1.0, 1e200):
        port = TwoPort(s11=0j, s12=scale * 1j, s21=scale * 1j, s22=0j)
        assert port.max_singular_value() == pytest.approx(scale, rel=1e-15)
