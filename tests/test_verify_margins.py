"""``synthesis.verify`` reads each margin at the frequency that binds it.

The passband margin is the in-band loss at ``f_passband_top`` alone, and the
stopband margin is ``sections`` times the least per-section attenuation over
the stopband grid. These tests hold both against the longer routes they
replace: the maximum over a 101-point passband grid, the per-count rows of
``attenuation_vs_sections``, and the least attenuation of the cascaded
S-parameter table.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    DesignSpec,
    DomainError,
    FrequencyGrid,
    Material,
    RectAperture,
    corner_frequency,
    filter_response,
    inband_transmission,
    insertion_loss_db,
    prototype_design,
    synthesize,
    verify,
)
from herd.cascade import attenuation_vs_sections, section_attenuation_db
from herd.errors import InfeasibleDesignError
from herd.model import AIR

POINTS = 101
BUDGET_DB = 0.15
TARGET_DB = 60.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _spec(design, top, stop_start) -> DesignSpec:
    return DesignSpec(50.0, top, BUDGET_DB, stop_start, TARGET_DB, design.aperture_fill, AIR)


@st.composite
def designs(draw):
    width = draw(st.floats(1e-3, 1e-2))
    return replace(
        prototype_design(),
        aperture=RectAperture(width, 1.25 * width, draw(st.floats(1e-4, 2e-2))),
        aperture_fill=Material(draw(st.floats(1.0, 4.0))),
        apertures_per_section=draw(st.integers(1, 16)),
        sections=draw(st.integers(1, 64)),
    )


def _grid_passband_loss(design, top):
    """The worst loss over the 101-point grid up to ``top`` that verify
    evaluated before, infinite where the top reaches the corner."""
    if top >= corner_frequency(design):
        return math.inf
    grid = FrequencyGrid.linear(top / POINTS, top, POINTS)
    return float(inband_transmission(design, grid.f).insertion_loss_db.max())


def _stop_grid(spec):
    return FrequencyGrid.linear(spec.f_stopband_start, 2.0 * spec.f_stopband_start, POINTS)


# --- passband ----------------------------------------------------------------

# shares of the corner: anywhere in band, and within 1e-15 of the corner
_SHARES = st.one_of(
    st.floats(1e-12, 1.0, exclude_max=True),
    st.floats(2.0**-53, 1e-15).map(lambda gap: 1.0 - gap),
)


@given(design=designs(), share=_SHARES)
def test_passband_margin_is_the_grid_maximum(design, share):
    fc = corner_frequency(design)
    spec = _spec(design, share * fc, fc)
    want = BUDGET_DB - _grid_passband_loss(design, spec.f_passband_top)
    assert _bits(verify(design, spec).margin_passband_db) == _bits(want)


def test_passband_at_or_above_the_corner_is_infinite_loss():
    design = prototype_design()
    fc = corner_frequency(design)
    for top in (fc, 1.5 * fc):
        assert verify(design, _spec(design, top, fc)).margin_passband_db == -math.inf


def test_a_subnormal_top_is_read_without_a_grid():
    # top / 101 rounds to 0, which the passband grid refused
    design = prototype_design()
    spec = _spec(design, 5e-324, corner_frequency(design))
    with pytest.raises(DomainError):
        FrequencyGrid.linear(spec.f_passband_top / POINTS, spec.f_passband_top, POINTS)
    loss = inband_transmission(design, spec.f_passband_top).insertion_loss_db
    assert verify(design, spec).margin_passband_db == BUDGET_DB - loss < BUDGET_DB


# --- stopband ----------------------------------------------------------------


# Stopband starts from below the corner, where the grid's least attenuation
# lies at its start, to above it, where it lies on the flat drain.
@given(design=designs(), over=st.floats(0.3, 3.0))
def test_stopband_margin_is_the_least_sections_row(design, over):
    fc = corner_frequency(design)
    spec = _spec(design, 0.25 * fc, over * fc)
    grid = _stop_grid(spec)
    rows = [attenuation_vs_sections(design, f, design.sections)[-1][1] for f in grid.f.tolist()]
    least = min(rows)
    assert _bits(verify(design, spec).margin_stopband_db) == _bits(least - TARGET_DB)
    # The cascaded table's least attenuation. Below the corner a section
    # passes nearly all power, and -20 log10 |s21**N| of the complex chain
    # keeps few digits of an attenuation near 0 dB, so it is compared from
    # the corner up, where a section attenuates by at least 1.8 dB.
    if over >= 1.0:
        table_least = float(insertion_loss_db(filter_response(design, grid).s21).min())
        assert abs(least - table_least) <= 1e-12 * table_least


@given(
    z0=st.floats(30.0, 90.0),
    top=st.floats(1e9, 20e9),
    ratio=st.floats(1.2, 4.0),
    budget=st.floats(0.01, 1.0),
    target=st.floats(10.0, 300.0),
    eps=st.floats(1.0, 3.0),
    n_ap=st.integers(2, 12),
)
def test_synthesized_margins_match_the_long_routes(z0, top, ratio, budget, target, eps, n_ap):
    spec = DesignSpec(z0, top, budget, ratio * top, target, Material(eps), AIR, n_ap)
    try:
        report = synthesize(spec)
    except InfeasibleDesignError:
        return
    design = report.design
    assert _bits(report.margin_passband_db) == _bits(budget - _grid_passband_loss(design, top))
    grid = _stop_grid(spec)
    least = min(attenuation_vs_sections(design, f, design.sections)[-1][1] for f in grid.f.tolist())
    assert _bits(report.margin_stopband_db) == _bits(least - target)
    table_least = float(insertion_loss_db(filter_response(design, grid).s21).min())
    assert abs(least - table_least) <= 1e-12 * table_least


def test_a_target_past_the_table_range_gets_a_finite_margin():
    # 42505397 sections: the cascaded s21 underflowed to 0, which read as an
    # infinite attenuation and a margin written n/a
    spec = DesignSpec(50.0, 10e9, 0.15, 25.3e9, 637584653.0, Material(2.2), AIR)
    report = synthesize(spec)
    assert report.design.sections == 42505397
    assert report.margin_stopband_db == 12.447450995445251


# --- section_attenuation_db over arrays ----------------------------------------


@given(design=designs(), shares=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=20))
def test_array_figures_have_the_bits_of_the_float_path(design, shares):
    f = np.array(shares) * corner_frequency(design)
    att = section_attenuation_db(design, f)
    assert isinstance(att, np.ndarray) and att.shape == f.shape
    one = [section_attenuation_db(design, x) for x in f.tolist()]
    assert all(type(x) is float for x in one)
    assert att.tobytes() == np.array(one).tobytes()


def test_a_lossless_section_is_plus_zero_either_way():
    deep = replace(prototype_design(), aperture=RectAperture(4e-3, 5e-3, 1e307))
    assert section_attenuation_db(deep, np.array([1e9, 2e9])).tobytes() == bytes(16)
    assert _bits(section_attenuation_db(deep, 1e9)) == bytes(8)


_BAD = st.sampled_from([0.0, -1e9, math.nan, math.inf, -math.inf])
_GOOD = st.floats(1e8, 1e12)


@given(head=st.lists(_GOOD, max_size=4), bad=_BAD, tail=st.lists(st.one_of(_GOOD, _BAD), max_size=4))
def test_array_names_the_first_bad_frequency(head, bad, tail):
    with pytest.raises(DomainError) as err:
        section_attenuation_db(prototype_design(), np.array([*head, bad, *tail]))
    assert str(err.value) == f"frequency grid points must be finite and > 0 (got {bad!r})"


ZERO = "cannot cascade a two-port with zero transmission (s21 = 0)"


@pytest.mark.parametrize(
    "freqs, message",
    [
        # 0.65**3000 underflows: above the corner no power passes
        ([1e9, 40e9], ZERO),
        (40e9, ZERO),
        # the first fault in order raises, as one call per frequency would
        ([40e9, -1.0], ZERO),
        ([1e9, -1.0, 40e9], "frequency grid points must be finite and > 0 (got -1.0)"),
    ],
)
def test_zero_transmission_raises(freqs, message):
    dense = replace(prototype_design(), apertures_per_section=3000)
    with pytest.raises(DomainError) as err:
        section_attenuation_db(dense, np.array(freqs))
    assert str(err.value) == message
    spec = _spec(dense, 1e9, 30e9)
    with pytest.raises(DomainError) as err:
        verify(dense, spec)
    assert str(err.value) == ZERO
