"""Column-wise writers against the row-wise writers they replaced.

``_oracle_write_touchstone`` formats every value of every row with one
``%.17g`` row template, and ``_oracle_response`` builds the per-point dicts
that ``json.dumps(indent=2)`` rendered for ``herd analyze --format json``;
``_ORACLE_CSV_ROW`` is the CSV row template. The writers must reproduce their
output byte for byte. ``herd analyze`` writes its rows in blocks of
``tsio.WRITE_BLOCK_ROWS``; a run that spans several blocks must write the
bytes of the same run in one block, and hold little more than its arrays.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from herd import (
    FrequencyGrid,
    Provenance,
    SParamTable,
    dumps_design,
    filter_response,
    insertion_loss_db,
    parse_touchstone,
    return_loss_db,
    write_touchstone,
)
from herd import tsio
from herd.cli import main
from herd.tsio import FREQUENCY_UNITS, format_columns

_ORACLE_ROW_FORMAT = " ".join(["%.17g"] * 9)
_ORACLE_CSV_ROW = "%.12g,%.12g,%.12g"
_DB_FLOOR = -400.0

FORMATS = ("RI", "MA", "DB")
UNITS = ("HZ", "KHZ", "MHZ", "GHZ")

# Enough sections that the stopband s21 underflows to exactly 0.
UNDERFLOW_SECTIONS = 450


def _oracle_pairs(fmt, values):
    if fmt == "RI":
        return values.real, values.imag
    mag = np.abs(values)
    ang = np.degrees(np.angle(values))
    if fmt == "MA":
        return mag, ang
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(mag), _DB_FLOOR), ang


def _oracle_write_touchstone(table, fmt, unit):
    columns = [table.f / FREQUENCY_UNITS[unit]]
    for values in (table.s11, table.s21, table.s12, table.s22):
        columns.extend(_oracle_pairs(fmt, values))
    lines = [f"! herd S-parameter table: {table.label or table.provenance.value}"]
    if table.mag_only:
        lines.append("!MAGONLY")
    lines.append(f"# {unit} S {fmt} R {table.z0:.17g}")
    lines.extend(map(_ORACLE_ROW_FORMAT.__mod__, zip(*(column.tolist() for column in columns))))
    return "\n".join(lines) + "\n"


def _oracle_json_column(values):
    column = values.astype(object)
    column[~np.isfinite(values)] = None
    return column.tolist()


def _oracle_response(table):
    s21_db = -insertion_loss_db(table.s21)
    s11_db = return_loss_db(table.s11)
    return [
        {"frequency_hz": f, "s21_db": s21, "s11_db": s11}
        for f, s21, s11 in zip(
            table.f.tolist(), _oracle_json_column(s21_db), _oracle_json_column(s11_db)
        )
    ]


def _grid(log, points=401):
    spacing = FrequencyGrid.logarithmic if log else FrequencyGrid.linear
    return spacing(1e8, 145e9, points)


def _reflecting_table(matched):
    """The matched response with a reflection of -20 dB to -26 dB: s11 varies
    over the grid and differs from s22, so the writer formats both of them as
    distinct, non-constant columns."""
    f = matched.f
    s11 = 1j * np.linspace(0.1, 0.05, len(f)) * np.exp(-1j * f / 3e9)
    s21 = matched.s21 * np.sqrt(1.0 - np.abs(s11) ** 2)
    return SParamTable(
        matched.grid, Provenance.MODEL, "reflecting table", s11=s11, s21=s21, s12=s21, s22=-s11.conj()
    )


def _model_tables(proto):
    grid = _grid(log=True)
    matched = filter_response(proto, grid)
    return {
        "matched": matched,
        "floor": _reflecting_table(matched),
        "underflow": filter_response(replace(proto, sections=UNDERFLOW_SECTIONS), grid),
    }


def _signed_zero_table():
    grid = FrequencyGrid((1e9, 2e9, 3e9))
    zeros = np.zeros(3)
    return SParamTable(
        grid=grid,
        provenance=Provenance.MEASURED,
        s11=zeros + 0j,
        s21=np.full(3, complex(0.5, 0.0)),
        s12=np.full(3, complex(0.5, -0.0)),
        s22=np.full(3, complex(-0.0, 0.0)),
    )


# --- format_columns ----------------------------------------------------------


def _reference(column, style):
    if style == "json":
        return [repr(x) if math.isfinite(x) else "null" for x in column.tolist()]
    return [style % x for x in column.tolist()]


_STYLES = ("%.17g", "%.12g", "json")
_special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, -400.0, 1e300])
_value = st.one_of(st.floats(), _special)


@st.composite
def _repeating_column(draw, length):
    """``length`` values drawn from a pool of a few, so that values repeat at
    scattered positions: signed zeros, NaNs of either sign, infinities, and
    a float with its neighbours one ulp away, which most often format alike
    at 12 digits and never at 17."""
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    neighbours = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, *neighbours]
    pool = draw(st.lists(st.sampled_from(values), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))


@st.composite
def _column_sets(draw):
    length = draw(st.integers(min_value=0, max_value=24))
    pool = draw(
        st.lists(
            st.one_of(
                st.lists(_value, min_size=length, max_size=length),
                _value.map(lambda x: [x] * length),
                _repeating_column(length),
            ),
            min_size=1,
            max_size=4,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=9))
    return [np.array(pool[i], dtype=float) for i in picks]


@pytest.mark.parametrize("style", _STYLES)
@given(columns=_column_sets())
def test_format_columns_matches_per_value_formatting(style, columns):
    assert format_columns(columns, style) == [_reference(c, style) for c in columns]


@pytest.mark.parametrize(
    "style, zero, negative_zero",
    [("%.17g", "0", "-0"), ("%.12g", "0", "-0"), ("json", "0.0", "-0.0")],
)
def test_signed_zero_columns_stay_distinct(style, zero, negative_zero):
    zeros = np.zeros(4)
    first, second, third = format_columns([zeros, -zeros, zeros.copy()], style)
    assert first == [zero] * 4
    assert second == [negative_zero] * 4
    assert third == first


def test_equal_columns_share_their_strings():
    column = np.linspace(1.0, 2.0, 5)
    first, second = format_columns([column, column.copy()], "%.17g")
    assert second is first


def test_json_style_writes_null_for_non_finite_values():
    column = np.array([1.5, math.inf, -math.inf, math.nan, -0.0])
    assert format_columns([column], "json") == [["1.5", "null", "null", "null", "-0.0"]]


def _count_formatted(monkeypatch):
    """Record the number of values each ``tsio._format_column`` call formats."""
    counts = []
    format_column = tsio._format_column

    def counting(values, style):
        counts.append(len(values))
        return format_column(values, style)

    monkeypatch.setattr(tsio, "_format_column", counting)
    return counts


@pytest.mark.parametrize("style", _STYLES)
def test_each_block_formats_its_distinct_values_once(monkeypatch, style):
    # A flat stopband: 96 distinct values, then one value to the end, in
    # blocks of BLOCK, BLOCK and 1 rows. The frequencies are all distinct,
    # and the third column equals the second.
    rows = 2 * BLOCK + 1
    f = np.linspace(1e8, 145e9, rows)
    s21 = np.full(rows, -123.25)
    s21[:96] = np.linspace(-0.5, -60.0, 96)
    counts = _count_formatted(monkeypatch)
    blocks = list(tsio.row_blocks([f, s21, s21.copy()], style))
    assert counts == [BLOCK, 96 + 1, BLOCK, 1, 1, 1]
    assert [len(block) for block in blocks] == [3, 3, 3]
    for start, (f_strings, s21_strings, again) in zip(range(0, rows, BLOCK), blocks):
        assert f_strings == _reference(f[start : start + BLOCK], style)
        assert s21_strings == _reference(s21[start : start + BLOCK], style)
        assert again is s21_strings


def test_signed_zeros_and_nans_are_told_apart_by_their_bits(monkeypatch):
    column = np.array([0.0, -0.0, math.nan, -math.nan, 0.0, math.nan, -0.0, -math.nan])
    counts = _count_formatted(monkeypatch)
    assert format_columns([column], "json") == [
        ["0.0", "-0.0", "null", "null", "0.0", "null", "-0.0", "null"]
    ]
    assert counts == [4]


def test_non_contiguous_columns():
    values = np.array([complex(1.0, -0.0), complex(-0.0, 2.0), complex(3.5, 0.0)])
    real, imag = format_columns([values.real, values.imag], "%.17g")
    assert real == ["1", "-0", "3.5"]
    assert imag == ["-0", "2", "0"]


# --- write_touchstone --------------------------------------------------------


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["matched", "floor", "underflow"])
def test_model_tables_match_the_oracle(proto, kind, fmt, unit):
    table = _model_tables(proto)[kind]
    assert write_touchstone(table, fmt=fmt, unit=unit) == _oracle_write_touchstone(table, fmt, unit)


def test_underflowing_s21_is_written_at_the_db_floor(proto):
    table = _model_tables(proto)["underflow"]
    assert not table.s21.all()
    rows = write_touchstone(table, fmt="DB", unit="GHZ").splitlines()[2:]
    assert any(row.split()[3] == "-400" for row in rows)


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("out_fmt", FORMATS)
@pytest.mark.parametrize("mag_only", [False, True])
@pytest.mark.parametrize("in_fmt", FORMATS)
@pytest.mark.parametrize("kind", ["matched", "floor"])
def test_parsed_tables_match_the_oracle(proto, kind, in_fmt, mag_only, out_fmt, unit):
    text = write_touchstone(_model_tables(proto)[kind], fmt=in_fmt, unit="GHZ")
    if mag_only:
        text = text.replace("\n#", "\n!MAGONLY\n#", 1)
    table = parse_touchstone(text)
    assert table.mag_only is mag_only
    expected = _oracle_write_touchstone(table, out_fmt, unit)
    assert write_touchstone(table, fmt=out_fmt, unit=unit) == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_signed_zero_table_matches_the_oracle(fmt):
    table = _signed_zero_table()
    text = write_touchstone(table, fmt=fmt, unit="GHZ")
    assert text == _oracle_write_touchstone(table, fmt, "GHZ")
    if fmt == "RI":
        assert text.splitlines()[2].split()[1:] == ["0", "0", "0.5", "0", "0.5", "-0", "-0", "0"]


# --- herd analyze ------------------------------------------------------------


def _analyze(tmp_path, capsys, design, fmt, log, claims):
    path = tmp_path / "filter.design"
    path.write_text(dumps_design(design))
    out = tmp_path / f"out.{fmt}"
    argv = ["analyze", "--design", str(path), "--fstart", "1e8", "--fstop", "145e9",
            "--points", "401", "--format", fmt, "--claims", claims, "--out", str(out)]
    if log:
        argv.append("--log")
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1)
    return out.read_text(), filter_response(design, _grid(log))


@pytest.mark.parametrize("claims", ["default", "strict12"])
@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json", "touchstone"])
@pytest.mark.parametrize("sections", [4, UNDERFLOW_SECTIONS])
def test_analyze_matches_the_oracle(tmp_path, capsys, proto, sections, fmt, log, claims):
    design = replace(proto, sections=sections)
    text, table = _analyze(tmp_path, capsys, design, fmt, log, claims)
    if fmt == "touchstone":
        expected = _oracle_write_touchstone(table, "DB", "GHZ")
    elif fmt == "json":
        doc = json.loads(text)
        expected = json.dumps({**doc, "response": _oracle_response(table)}, indent=2) + "\n"
        if sections == UNDERFLOW_SECTIONS:
            assert any(row["s21_db"] is None for row in doc["response"])
        assert all(row["s11_db"] is None for row in doc["response"])
    else:
        rows = zip(
            table.f.tolist(),
            (-insertion_loss_db(table.s21)).tolist(),
            return_loss_db(table.s11).tolist(),
        )
        data = list(map(_ORACLE_CSV_ROW.__mod__, rows))
        comments = [line for line in text.splitlines() if line.startswith("#")]
        expected = "\n".join(["frequency_hz,s21_db,s11_db", *data, *comments]) + "\n"
    assert text == expected


# --- row blocks --------------------------------------------------------------

BLOCK = tsio.WRITE_BLOCK_ROWS


def _run(capsys, argv, out):
    """Exit code, stdout, stderr and the text of ``out`` (None without it)."""
    code = main([*argv, "--out", str(out)] if out else argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_text() if out else None


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("points", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("fmt", ["csv", "json", "touchstone"])
def test_row_blocks_write_the_bytes_of_one_block(
    tmp_path, capsys, monkeypatch, proto, fmt, points, to_file
):
    path = tmp_path / "filter.design"
    path.write_text(dumps_design(proto))
    argv = ["analyze", "--design", str(path), "--points", str(points), "--log",
            "--format", fmt, "--claims", "default"]
    blocks = _run(capsys, argv, tmp_path / "blocks.txt" if to_file else None)
    monkeypatch.setattr(tsio, "WRITE_BLOCK_ROWS", points)
    assert _run(capsys, argv, tmp_path / "whole.txt" if to_file else None) == blocks
    assert blocks[0] == 0

    if fmt == "json":
        text = blocks[3] if to_file else blocks[1]
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["response"] == _oracle_response(filter_response(proto, _grid(True, points)))


# A streamed run holds its arrays (40 bytes per point in the model table, and
# the output columns derived from it) and one block of text: about 1.6x the
# table's bytes for CSV and JSON and 2.2x for Touchstone. A writer that holds
# the whole document as one string peaks at 7.4x (CSV) to 12.3x (Touchstone).
MEMORY_MULTIPLE = 3.0


@pytest.mark.parametrize("fmt", ["csv", "json", "touchstone"])
def test_traced_peak_is_bounded_by_the_arrays(tmp_path, capsys, proto, fmt):
    points = 200_000
    table = filter_response(proto, _grid(False, points))
    array_bytes = table.f.nbytes + table.s11.nbytes + table.s21.nbytes
    del table
    path = tmp_path / "filter.design"
    path.write_text(dumps_design(proto))
    argv = ["analyze", "--design", str(path), "--points", str(points), "--format", fmt,
            "--claims", "default", "--out", str(tmp_path / "out.txt")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < MEMORY_MULTIPLE * array_bytes
