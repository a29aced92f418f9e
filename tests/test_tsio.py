import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herd import (
    Claim,
    ClaimKind,
    DomainError,
    FrequencyGrid,
    ParseError,
    Provenance,
    SParamTable,
    band_metrics,
    check_claims,
    filter_response,
    parse_touchstone,
    prototype_design,
    write_touchstone,
)

DB_HEADER = "# GHZ S DB R 50"


def flat_table(s21_mags, s11_mag=0.0, f0=1e9, step=1e9) -> SParamTable:
    freqs = tuple(f0 + i * step for i in range(len(s21_mags)))
    s21 = np.array(s21_mags, dtype=complex)
    s11 = np.full(len(s21_mags), complex(s11_mag, 0.0))
    return SParamTable(FrequencyGrid(freqs), Provenance.MEASURED, s11=s11, s21=s21, s12=s21, s22=s11)


class TestParse:
    def test_db_format_row(self):
        text = f"{DB_HEADER}\n10 -0.05 -10 -60.2 120 -60.2 120 -0.05 -10\n"
        table = parse_touchstone(text)
        assert len(table.grid) == 1
        assert table.grid.points[0] == 1e10
        (port,) = table.entries
        assert abs(port.s21) == pytest.approx(10 ** (-60.2 / 20), rel=1e-12)
        assert math.degrees(cmath.phase(port.s21)) == pytest.approx(120.0, rel=1e-9)
        assert table.z0 == 50.0
        assert table.provenance is Provenance.MEASURED

    def test_ri_format_row(self):
        text = "# HZ S RI R 50\n1e9 0.1 0 0.99 0 0.99 0 0.1 0\n"
        (port,) = parse_touchstone(text).entries
        assert port.s21 == 0.99 + 0j
        assert port.s11 == 0.1 + 0j

    def test_ma_format_row(self):
        text = "# MHZ S MA R 75\n100 0.5 90 0.8 0 0.8 0 0.5 90\n"
        table = parse_touchstone(text)
        assert table.grid.points[0] == 1e8
        (port,) = table.entries
        assert port.s11 == pytest.approx(0.5j, rel=1e-12)
        assert table.z0 == 75.0

    def test_case_insensitive_option_line(self):
        text = "# ghz s ri r 50\n1 0 0 1 0 1 0 0 0\n"
        assert parse_touchstone(text).grid.points[0] == 1e9

    def test_comments_ignored(self):
        text = "! VNA export\n# HZ S RI R 50\n1e9 0 0 1 0 1 0 0 0 ! trailing note\n"
        assert len(parse_touchstone(text).entries) == 1

    def test_magonly_directive(self):
        text = "!MAGONLY\n# HZ S MA R 50\n1e9 0.5 45 0.8 30 0.8 30 0.5 45\n"
        table = parse_touchstone(text)
        assert table.mag_only
        (port,) = table.entries
        assert port.s21 == 0.8 + 0j
        assert port.s11 == 0.5 + 0j

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            ("# PHZ S RI R 50\n1 0 0 1 0 1 0 0 0\n", 1),
            ("# HZ S XX R 50\n1 0 0 1 0 1 0 0 0\n", 1),
            ("# HZ S RI 50\n1 0 0 1 0 1 0 0 0\n", 1),
            ("# HZ S RI R fifty\n1 0 0 1 0 1 0 0 0\n", 1),
            ("# HZ S RI R 50\n1e9 0 0 1 0\n", 2),
            ("# HZ S RI R 50\n1e9 0 0 one 0 1 0 0 0\n", 2),
            ("# HZ S RI R 50\n2e9 0 0 1 0 1 0 0 0\n1e9 0 0 1 0 1 0 0 0\n", 3),
            ("1e9 0 0 1 0 1 0 0 0\n", 1),
            ("# HZ S RI R 50\n# HZ S RI R 50\n", 2),
            ("[Version] 2.0\n# HZ S RI R 50\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, text, bad_line):
        with pytest.raises(ParseError) as err:
            parse_touchstone(text)
        assert err.value.line == bad_line

    def test_missing_option_line(self):
        with pytest.raises(ParseError):
            parse_touchstone("")

    def test_no_data_rows(self):
        with pytest.raises(ParseError):
            parse_touchstone("# HZ S RI R 50\n")


class TestWrite:
    def test_identity_db_row(self):
        table = flat_table([1.0])
        text = write_touchstone(table, fmt="DB", unit="HZ")
        data = [line for line in text.splitlines() if line and not line.startswith(("!", "#"))]
        fields = data[0].split()
        assert fields[3] == "0" and fields[4] == "0"

    def test_ghz_unit_scales_exactly(self):
        table = flat_table([0.5], f0=2.5e9)
        text = write_touchstone(table, fmt="RI", unit="GHZ")
        data = [line for line in text.splitlines() if line and not line.startswith(("!", "#"))][0]
        assert data.split()[0] == "2.5"

    def test_magonly_flag_round_trips(self):
        table = flat_table([0.5, 0.4])
        flagged = SParamTable(
            table.grid, table.provenance, mag_only=True,
            s11=table.s11, s21=table.s21, s12=table.s12, s22=table.s22,
        )
        assert parse_touchstone(write_touchstone(flagged, "MA", "HZ")).mag_only

    def test_rejects_unknown_format_and_unit(self):
        table = flat_table([1.0])
        with pytest.raises(DomainError):
            write_touchstone(table, fmt="IQ", unit="HZ")
        with pytest.raises(DomainError):
            write_touchstone(table, fmt="RI", unit="THZ")


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    f0 = draw(st.floats(min_value=1e3, max_value=1e9))
    factors = draw(
        st.lists(st.floats(min_value=1.1, max_value=3.0), min_size=n - 1, max_size=n - 1)
    )
    freqs = [f0]
    for factor in factors:
        freqs.append(freqs[-1] * factor)

    def complex_value():
        mag = draw(st.floats(min_value=1e-6, max_value=1.5))
        phase = draw(st.floats(min_value=-math.pi, max_value=math.pi))
        return cmath.rect(mag, phase)

    s11, s12, s21, s22 = zip(
        *((complex_value(), complex_value(), complex_value(), complex_value()) for _ in range(n))
    )
    return SParamTable(
        FrequencyGrid(tuple(freqs)), Provenance.MEASURED, s11=s11, s21=s21, s12=s12, s22=s22
    )


@given(
    table=tables(),
    fmt=st.sampled_from(["RI", "MA", "DB"]),
    unit=st.sampled_from(["HZ", "KHZ", "MHZ", "GHZ"]),
)
def test_round_trip_preserves_values(table, fmt, unit):
    back = parse_touchstone(write_touchstone(table, fmt=fmt, unit=unit))
    assert len(back.entries) == len(table.entries)
    for f1, f2 in zip(table.grid, back.grid):
        assert f2 == pytest.approx(f1, rel=1e-9)
    for p1, p2 in zip(table.entries, back.entries):
        for a, b in ((p1.s11, p2.s11), (p1.s12, p2.s12), (p1.s21, p2.s21), (p1.s22, p2.s22)):
            assert abs(a - b) <= 1e-9 * abs(a)


def test_db_and_ma_representations_agree():
    design = prototype_design()
    table = filter_response(design, FrequencyGrid.linear(1e9, 9e9, 9))
    via_db = parse_touchstone(write_touchstone(table, "DB", "GHZ"))
    via_ma = parse_touchstone(write_touchstone(table, "MA", "GHZ"))
    band = (1e9, 9e9)
    m_db = band_metrics(via_db, band)
    m_ma = band_metrics(via_ma, band)
    assert m_db.max_insertion_loss_db == pytest.approx(m_ma.max_insertion_loss_db, abs=1e-9)
    assert m_db.min_attenuation_db == pytest.approx(m_ma.min_attenuation_db, abs=1e-9)
    assert m_db.max_ripple_db == pytest.approx(m_ma.max_ripple_db, abs=1e-9)


class TestBandMetrics:
    def test_constant_magnitude_has_zero_ripple(self):
        table = flat_table([0.99] * 5)
        metric = band_metrics(table, (1e9, 5e9))
        assert metric.max_ripple_db == 0.0

    def test_two_point_ripple(self):
        table = flat_table([10 ** (-0.10 / 20), 10 ** (-0.05 / 20)])
        metric = band_metrics(table, (0.5e9, 2.5e9))
        assert metric.max_insertion_loss_db == pytest.approx(0.10, abs=1e-12)
        assert metric.min_attenuation_db == pytest.approx(0.05, abs=1e-12)
        assert metric.max_ripple_db == pytest.approx(0.05, abs=1e-12)

    def test_model_stopband_attenuation(self, proto):
        table = filter_response(proto, FrequencyGrid.linear(70e9, 145e9, 150))
        assert band_metrics(table, (70e9, 145e9)).min_attenuation_db >= 60.0

    def test_band_only_uses_inside_points(self):
        table = flat_table([0.5, 0.99, 0.99, 0.5], f0=1e9)
        metric = band_metrics(table, (1.5e9, 3.5e9))
        assert metric.max_insertion_loss_db == pytest.approx(-20 * math.log10(0.99), rel=1e-12)

    def test_worst_return_loss(self):
        table = flat_table([0.9, 0.9], s11_mag=0.1)
        assert band_metrics(table, (0.5e9, 2.5e9)).worst_return_loss_db == pytest.approx(
            -20.0, abs=1e-9
        )
        matched = flat_table([0.9, 0.9])
        assert band_metrics(matched, (0.5e9, 2.5e9)).worst_return_loss_db == -math.inf

    def test_empty_band_rejected(self):
        table = flat_table([0.9, 0.9])
        with pytest.raises(DomainError):
            band_metrics(table, (5e9, 6e9))
        with pytest.raises(DomainError):
            band_metrics(table, (2e9, 1e9))


class TestCheckClaims:
    def test_model_passes_headline_claims(self, proto):
        grid = FrequencyGrid.linear(1e8, 145e9, 600)
        table = filter_response(proto, grid)
        report = check_claims(
            table,
            [
                Claim((0.0, 10e9), ClaimKind.MAX_IL, 0.15),
                Claim((70e9, 145e9), ClaimKind.MIN_ATT, 60.0),
            ],
        )
        assert report.passed
        assert all(r.observed_db is not None for r in report.results)

    def test_zero_loss_claim_fails_on_lossy_table(self):
        table = flat_table([0.9] * 3)
        report = check_claims(table, [Claim((1e9, 3e9), ClaimKind.MAX_IL, 0.0)])
        assert not report.passed

    def test_ripple_claim(self):
        table = flat_table([10 ** (-0.10 / 20), 10 ** (-0.05 / 20)])
        ok = check_claims(table, [Claim((0.5e9, 2.5e9), ClaimKind.MAX_RIPPLE, 0.06)])
        assert ok.passed
        bad = check_claims(table, [Claim((0.5e9, 2.5e9), ClaimKind.MAX_RIPPLE, 0.04)])
        assert not bad.passed

    def test_band_without_data_gives_error_row(self):
        table = flat_table([0.9] * 3)
        report = check_claims(table, [Claim((50e9, 60e9), ClaimKind.MIN_ATT, 60.0)])
        assert not report.passed
        row = report.results[0]
        assert row.error is not None and "band" in row.error
        assert row.observed_db is None


_odd_tokens = ["nan", "-inf", "1e999", "1e-999", "-0", "1_0", "0x10", "x", "1e308", ""]
_odd_lines = ["!MAGONLY", "! comment", "[Version] 2.0", "#", "# HZ S RI R 50", ""]


@st.composite
def _touchstone_texts(draw):
    """A well-formed file (one option line, rows of 9 numbers at increasing
    frequencies) with up to three faults: a token replaced or dropped, an
    extra line, or two rows swapped."""
    rows = [
        "# {} S {} R {}".format(
            draw(st.sampled_from(["HZ", "ghz", "MHz", "KHZ"])),
            draw(st.sampled_from(["RI", "ma", "DB"])),
            repr(draw(st.floats(min_value=1e-3, max_value=1e3)))
            if draw(st.integers(0, 4))
            else draw(st.sampled_from(_odd_tokens)),
        ).split()
    ]
    freqs = draw(st.lists(st.floats(min_value=1e-3, max_value=1e12), max_size=8, unique=True))
    for f in sorted(freqs):
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=8))
        rows.append([repr(v) for v in (f, *values)])
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["token", "drop", "line", "swap"]))
        if fault == "token":
            column = draw(st.integers(0, len(rows[row]) - 1)) if rows[row] else 0
            token = draw(st.one_of(st.sampled_from(_odd_tokens), st.floats().map(repr)))
            rows[row][column : column + 1] = [token]
        elif fault == "drop" and rows[row]:
            del rows[row][draw(st.integers(0, len(rows[row]) - 1))]
        elif fault == "line":
            line = draw(st.one_of(st.sampled_from(_odd_lines), st.text(max_size=20)))
            rows.insert(row, [line])
        else:
            other = draw(st.integers(0, len(rows) - 1))
            rows[row], rows[other] = rows[other], rows[row]
    return "\n".join(" ".join(row) for row in rows)


# Each fault is a few percent of the drawn files, so this takes more examples
# than the default.
@settings(max_examples=600)
@given(st.one_of(st.text(), _touchstone_texts()))
def test_any_text_gives_a_table_or_a_parse_error(text):
    try:
        table = parse_touchstone(text)
    except ParseError:
        return
    assert isinstance(table, SParamTable)
    for values in (table.s11, table.s21, table.s12, table.s22):
        assert values.shape == table.f.shape
        assert np.isfinite(values).all()


@pytest.mark.parametrize("column", [1, 3, 5, 7])
def test_db_magnitude_overflow_rejected_with_line(column):
    # 10**(1e308 / 20) overflows: a ParseError, not an infinite S-parameter
    row = ["2", "0", "0", "0", "0", "0", "0", "0", "0"]
    row[column] = "1e308"
    # the row after the overflow is out of order: the first bad row is named
    text = "# HZ S DB R 50\n1 0 0 0 0 0 0 0 0\n" + " ".join(row) + "\n1.5 1e308 0 0 0 0 0 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_touchstone(text)
    assert err.value.line == 3
    assert "overflows" in str(err.value)


def test_db_magnitude_underflow_is_zero():
    table = parse_touchstone("# HZ S DB R 50\n1 -1e308 0 0 0 0 0 0 0\n")
    assert table.s11.tolist() == [0j]
