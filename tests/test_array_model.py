"""The array forward model against a scalar per-point reference.

``_scalar_section`` and ``_scalar_cascade`` keep the per-frequency-point
section math and the general T-matrix chaining that ``filter_response``
evaluated point by point before the model became array expressions; the
chain is the independent reference for the array model's s21**N. The array model
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
    write_touchstone,
)
from herd.cascade import DEFAULT_TRANSITION_WIDTH
from herd.cli import main
from herd.modes import dominant_mode_index

REL = 1e-12
SHARPNESS = 2.0 * math.log(99.0)


# --- scalar reference --------------------------------------------------------


def _scalar_section(design, f):
    if not (math.isfinite(f) and f > 0.0):
        raise DomainError(f"frequency must be finite and > 0 (got {f!r})")
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

    arg = SHARPNESS * (f - fc) / (DEFAULT_TRANSITION_WIDTH * fc)
    weight = 1.0 / (1.0 + math.exp(-arg))
    t_power = (1.0 - weight) * t_below + weight * t_above

    # the phase argument rounded as the array model rounds it, so that the
    # two agree even where it is of order 1e298 rad
    delay = 2.0 * math.pi * design.section_pitch * design.coax_fill.refractive_index / C0
    s21 = math.sqrt(t_power) * cmath.exp(-1j * (delay * f))
    return TwoPort(s11=0j, s12=s21, s21=s21, s22=0j)


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


def _scalar_response(design, grid):
    return [_scalar_cascade([_scalar_section(design, f)] * design.sections) for f in grid]


def _assert_agrees(design, grid):
    table = filter_response(design, grid)
    expected = _scalar_response(design, grid)
    assert len(table.entries) == len(expected)
    for got, want in zip(table.entries, expected):
        for name in ("s11", "s12", "s21", "s22"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= REL * abs(b), (name, a, b)
    return table


# --- agreement ---------------------------------------------------------------


@pytest.mark.parametrize("spacing", ["linear", "log"])
@pytest.mark.parametrize("sections", [1, 4, 7])
def test_agrees_with_scalar_reference(proto, spacing, sections):
    design = replace(proto, sections=sections)
    make = FrequencyGrid.linear if spacing == "linear" else FrequencyGrid.logarithmic
    # up to 300 GHz: past about 218 GHz the blend weight rounds to exactly 1
    _assert_agrees(design, make(1e8, 300e9, 997))


def test_height_axis_agrees(proto):
    design = replace(proto, dominant_mode_axis=DominantModeAxis.HEIGHT)
    _assert_agrees(design, FrequencyGrid.linear(1e8, 145e9, 501))


def test_blend_band_and_exact_corner(proto):
    fc = corner_frequency(proto)
    points = sorted(set(np.linspace(0.9 * fc, 1.1 * fc, 201).tolist()) | {fc})
    table = _assert_agrees(proto, FrequencyGrid(tuple(points)))
    at_corner = table.entries[points.index(fc)]
    t_above = (1.0 - proto.stopband_kappa) ** proto.apertures_per_section
    assert abs(at_corner.s21) ** 2 == pytest.approx((0.5 * t_above) ** proto.sections, rel=1e-12)


@pytest.mark.parametrize("sections", [1, 4])
def test_extreme_frequencies_agree(proto, sections):
    # From the smallest subnormal to the largest float: the blend's exp
    # argument stays above -92, and (fc - f)(fc + f) would overflow past
    # about 1e154, so no floating-point fault may be raised anywhere.
    fc = corner_frequency(proto)
    points = (5e-324, 1e-300, 1.0, 1e6, 0.5 * fc, fc, 2.0 * fc, 1e15, 1e100,
              1e154, 1e155, 1e160, 1e300, 1.7e308)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        table = _assert_agrees(replace(proto, sections=sections), FrequencyGrid(points))
    assert np.all(np.abs(table.s21) > 0.0)


# --- errors ------------------------------------------------------------------


def _both_raise(design, grid):
    with pytest.raises(DomainError) as want:
        _scalar_response(design, grid)
    with pytest.raises(DomainError) as got:
        filter_response(design, grid)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sections", [1, 2, 4])
def test_zero_transmission(proto, sections):
    # (1 - kappa)**21 = 2**-1113 rounds to 0, and far above the corner the
    # blend weight is exactly 1, so s21 is exactly 0 there
    drained = replace(proto, stopband_kappa=1.0 - 2.0**-53, apertures_per_section=21, sections=sections)
    _both_raise(drained, FrequencyGrid.linear(1e9, 300e9, 40))


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


def test_table_from_arrays_and_back():
    grid = FrequencyGrid((1e9, 2e9, 3e9))
    ports = tuple(
        TwoPort(s11=0.1j * k, s12=0.9 - 0.1j * k, s21=0.8 + 0.05j * k, s22=-0.2 * k, z0=75.0)
        for k in range(3)
    )
    arrays = {name: [getattr(p, name) for p in ports] for name in ("s11", "s21", "s12", "s22")}
    table = SParamTable(grid, Provenance.MEASURED, z0=75.0, **arrays)
    assert table.z0 == 75.0
    assert tuple(table.entries) == ports
    assert table.entries[1] == ports[1] and table.entries[-1] == ports[-1]
    assert len(table.entries) == 3
    np.testing.assert_array_equal(table.f, [1e9, 2e9, 3e9])
    np.testing.assert_array_equal(table.s12, [p.s12 for p in ports])
    with pytest.raises(ValueError):
        table.s21[0] = 0j


def test_table_rejects_wrong_length():
    for name in ("s11", "s21", "s12", "s22"):
        arrays = dict.fromkeys(("s11", "s21", "s12", "s22"), np.ones(2, dtype=complex))
        arrays[name] = np.ones(1, dtype=complex)
        with pytest.raises(DomainError, match="one entry per grid point"):
            SParamTable(FrequencyGrid((1e9, 2e9)), Provenance.MEASURED, **arrays)


def _one_point_table(z0: float) -> SParamTable:
    return SParamTable(
        FrequencyGrid((1e9,)), Provenance.MODEL, s11=[0j], s21=[1 + 0j], s12=[1 + 0j], s22=[0j], z0=z0
    )


@pytest.mark.parametrize("z0", [0.0, -50.0, math.nan, math.inf])
def test_table_refuses_an_impedance_no_option_line_carries(z0):
    with pytest.raises(DomainError, match="reference impedance must be finite and > 0 ohm"):
        _one_point_table(z0)


@pytest.mark.parametrize("z0", [5e-324, 75.0, 1.7976931348623157e308])
def test_every_table_impedance_reads_back(z0):
    assert parse_touchstone(write_touchstone(_one_point_table(z0))).z0 == z0


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
