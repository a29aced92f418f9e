"""Column-wise writers against the row-wise writers they replaced.

``_oracle_write_touchstone`` formats every value of every row with one
``%.17g`` row template, and ``_oracle_response`` builds the per-point dicts
that ``json.dumps(indent=2)`` rendered for ``herd analyze --format json``;
``_ORACLE_CSV_ROW`` is the CSV row template. ``herd analyze`` writes the
model's figures, ``cascade_loss_db`` and ``transmission_phase``, with no
table between; the oracles format the same figures row by row. The writers must reproduce their
output byte for byte. ``herd analyze`` writes its rows in blocks of
``tsio.WRITE_BLOCK_ROWS``; a run that spans several blocks must write the
bytes of the same run in one block, and hold little more than its arrays.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal

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
    parse_touchstone,
    write_touchstone,
)
from herd import numtext, tsio
from herd.cascade import cascade_loss_db, transmission_phase
from herd.cli import main
from herd.tsio import FREQUENCY_UNITS

_ORACLE_ROW_FORMAT = " ".join(["%.17g"] * 9)
_ORACLE_CSV_ROW = "%.12g,%.12g,%.12g"
_DB_FLOOR = -400.0

FORMATS = ("RI", "MA", "DB")
UNITS = ("HZ", "KHZ", "MHZ", "GHZ")

# Enough sections that the stopband s21 underflows to exactly 0.
UNDERFLOW_SECTIONS = 450
# Enough sections that the stopband loss exceeds the float range.
OVERFLOW_SECTIONS = 10**308


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


def _model_s21_db(design, grid):
    """The s21 [dB] `herd analyze` writes: +0 where lossless."""
    return 0.0 - cascade_loss_db(design, grid)


def _oracle_response(grid, s21_db):
    # a matched model's s11 is 0: s11_db is -inf, null in JSON
    s11_db = np.full(len(grid), -math.inf)
    return [
        {"frequency_hz": f, "s21_db": s21, "s11_db": s11}
        for f, s21, s11 in zip(
            grid.f.tolist(), _oracle_json_column(s21_db), _oracle_json_column(s11_db)
        )
    ]


def _oracle_analyze_touchstone(design, grid):
    s21_db, phase = _model_s21_db(design, grid), np.degrees(transmission_phase(design, grid.f))
    floor, zero = np.full(len(grid), _DB_FLOOR), np.zeros(len(grid))
    s21 = (np.maximum(s21_db, _DB_FLOOR), phase)
    columns = [grid.f / FREQUENCY_UNITS["GHZ"], floor, zero, *s21, *s21, floor, zero]
    lines = [f"! herd S-parameter table: cascade model, {design.sections} sections", "# GHZ S DB R 50"]
    lines.extend(map(_ORACLE_ROW_FORMAT.__mod__, zip(*(column.tolist() for column in columns))))
    return "\n".join(lines) + "\n"


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


# --- row_blocks: one plan per table ------------------------------------------


def _reference(column, style):
    """CPython's text of each value: ``style % x``, or repr for ``json``;
    ``null`` (``json``) and ``n/a`` (``text``) where not finite."""
    form = float.__repr__ if style == "json" else ("%.12g" if style == "text" else style).__mod__
    strings = list(map(form, column.tolist()))
    if style in ("json", "text"):
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            strings[i] = "null" if style == "json" else "n/a"
    return strings


def _strings(matrix):
    """The text of each row of a NUL-padded byte matrix."""
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in matrix]


def _formatted(columns, styles):
    """The text of each column's values, from the rows ``row_blocks``
    writes with a ``|`` between values."""
    texts = ["", *["|"] * (len(columns) - 1), "\n"]
    rows = "".join(tsio.row_blocks(columns, styles, texts)).splitlines()
    return [list(column) for column in zip(*(row.split("|") for row in rows))] or [[]] * len(columns)


_STYLES = ("%.17g", "%.12g", "json", "text")
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
def test_row_blocks_match_per_value_formatting(style, columns):
    assert _formatted(columns, [style] * len(columns)) == [_reference(c, style) for c in columns]


@pytest.mark.parametrize(
    "style, zero, negative_zero",
    [("%.17g", "0", "-0"), ("%.12g", "0", "-0"), ("json", "0.0", "-0.0")],
)
def test_signed_zero_columns_stay_distinct(style, zero, negative_zero):
    # equal by value, not by bits: the second column is not the first's repeat
    zeros = np.array([0.0, -0.0, 0.0, -0.0])
    first, second, third = _formatted([zeros, -zeros, zeros.copy()], [style] * 3)
    assert first == [zero, negative_zero] * 2
    assert second == [negative_zero, zero] * 2
    assert third == first


def test_equal_columns_share_their_strings(monkeypatch):
    column = np.linspace(1.0, 2.0, 5)
    counts = _count_formatted(monkeypatch)
    assert _formatted([column, column.copy()], ["%.17g"] * 2) == [_reference(column, "%.17g")] * 2
    assert counts == [5]


def test_json_style_writes_null_for_non_finite_values():
    column = np.array([1.5, math.inf, -math.inf, math.nan, -0.0])
    assert _formatted([column], ["json"]) == [["1.5", "null", "null", "null", "-0.0"]]


def _count_formatted(monkeypatch):
    """Record the number of values each ``numtext.column_text`` call
    formats."""
    counts = []
    column_text = numtext.column_text

    def counting(values, style):
        counts.append(len(values))
        return column_text(values, style)

    monkeypatch.setattr(numtext, "column_text", counting)
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
    pieces = list(tsio.row_blocks([f, s21, s21.copy()], [style] * 3, ["<", "|", "|", ">\n"]))
    assert counts == [BLOCK, 96 + 1, BLOCK, 1, 1, 1]
    assert all(piece.endswith(">\n") for piece in pieces)
    f_strings, s21_strings = _reference(f, style), _reference(s21, style)
    assert "".join(pieces) == "".join(f"<{a}|{b}|{b}>\n" for a, b in zip(f_strings, s21_strings))


@pytest.mark.parametrize("style", _STYLES)
def test_strictly_increasing_columns_are_not_sorted(monkeypatch, style):
    # A grid and a count column never repeat a value, so they are formatted
    # whole; the falling column beside them still finds its one repeat.
    f = np.linspace(1e8, 145e9, 50)
    counts = np.arange(1.0, 51.0)
    falling = np.linspace(-0.5, -60.0, 50)
    falling[-1] = falling[0]
    unique = np.unique
    sorted_columns = []

    def counting(values, *args, **kwargs):
        sorted_columns.append(len(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(tsio.np, "unique", counting)
    formatted = _count_formatted(monkeypatch)
    strings = _formatted([f, counts, falling], [style] * 3)
    assert sorted_columns == [50]
    assert formatted == [50, 50, 49]
    assert strings == [_reference(f, style), _reference(counts, style), _reference(falling, style)]


def test_a_repeated_column_in_another_style_takes_its_own_style(monkeypatch):
    # the bits of the first column four times, in three styles: the third
    # repeats the first, the others are formatted in their own style
    column = np.array([0.1, math.inf, -0.0, 2.5])
    styles = ["%.17g", "json", "%.17g", "text"]
    counts = _count_formatted(monkeypatch)
    strings = _formatted([column, column.copy(), column.copy(), column.copy()], styles)
    assert strings == [_reference(column, style) for style in styles]
    assert strings[0] != strings[3]
    assert counts == [4, 4, 4]


def test_each_column_takes_its_own_style():
    column = np.array([1.0, math.inf, -0.0])
    text, json_, printf = _formatted([column, column, column], ["text", "json", "%.12g"])
    assert text == ["1", "n/a", "-0"]
    assert json_ == ["1.0", "null", "-0.0"]
    assert printf == ["1", "inf", "-0"]
    assert _formatted([np.array([3.0, 500000.0])], ["%d"]) == [["3", "500000"]]


def test_signed_zeros_and_nans_are_told_apart_by_their_bits(monkeypatch):
    column = np.array([0.0, -0.0, math.nan, -math.nan, 0.0, math.nan, -0.0, -math.nan])
    counts = _count_formatted(monkeypatch)
    assert _formatted([column], ["json"]) == [
        ["0.0", "-0.0", "null", "null", "0.0", "null", "-0.0", "null"]
    ]
    assert counts == [4]


def test_non_contiguous_columns():
    values = np.array([complex(1.0, -0.0), complex(-0.0, 2.0), complex(3.5, 0.0)])
    real, imag = _formatted([values.real, values.imag], ["%.17g"] * 2)
    assert real == ["1", "-0", "3.5"]
    assert imag == ["-0", "2", "0"]


def test_empty_blocks():
    empty = np.array([])
    assert tsio._column_text(empty, empty.view(np.int64), "json").shape[0] == 0
    assert list(tsio.row_blocks([empty], ["%.17g"], ["", "\n"])) == []
    assert list(tsio.row_blocks([empty, empty.copy()], ["json", "%d"], ["", ",", "\n"])) == []


def _wrapped_phase(rows):
    """A wrapped phase in degrees: every value distinct, rising and falling."""
    f = np.linspace(1e8, 145e9, rows)
    return np.degrees(np.angle(np.exp(-1j * f / 3e9)))


@pytest.mark.parametrize("style", _STYLES)
def test_repeat_free_columns_are_formatted_whole(monkeypatch, style):
    phase = _wrapped_phase(300)
    assert len(np.unique(phase)) == len(phase) and not (np.diff(phase) > 0).all()
    unique = np.unique
    sorted_columns = []

    def counting(values, *args, **kwargs):
        sorted_columns.append(len(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(tsio.np, "unique", counting)
    formatted = _count_formatted(monkeypatch)
    assert _formatted([phase], [style]) == [_reference(phase, style)]
    assert sorted_columns == []
    assert formatted == [len(phase)]


# --- constant columns ----------------------------------------------------------
#
# row_blocks writes a column whose bits are equal in every row of the table
# once, as part of the fixed text between its neighbours.

_CONSTANTS = [-math.inf, math.inf, math.nan, -0.0, 0.0, -400.0, 5e-324, 1e300]


def _expected_rows(columns, style, texts):
    """Each row's text, from CPython's text of each value. Rows are compared
    as lists, so a failure names the first differing row."""
    strings = [_reference(column, style) for column in columns]
    return [
        texts[0] + "".join(value + text for value, text in zip(row, texts[1:]))
        for row in zip(*strings)
    ]


def _rows(text):
    return text.splitlines(keepends=True)


def _varying(style, rows):
    """Two columns that vary over the table in ``style``."""
    if style == "%d":
        return np.arange(rows, dtype=float), np.arange(rows, 0, -1, dtype=float)
    return np.linspace(1e8, 145e9, rows), _wrapped_phase(rows)


@pytest.mark.parametrize("style", _STYLES)
def test_a_table_constant_column_is_formatted_once_per_table(monkeypatch, style):
    rows = 2 * BLOCK + 1
    f, phase = _varying(style, rows)
    constant = np.full(rows, -400.0)
    texts = ["<", "|", "|", ">\n"]
    counts = _count_formatted(monkeypatch)
    pieces = list(tsio.row_blocks([f, constant, phase], [style] * 3, texts))
    assert counts == [1, BLOCK, BLOCK, BLOCK, BLOCK, 1, 1]
    assert _rows("".join(pieces)) == _expected_rows([f, constant, phase], style, texts)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize(
    "style, value",
    [(style, value) for style in _STYLES for value in _CONSTANTS]
    + [("%d", value) for value in _CONSTANTS if math.isfinite(value) and value == int(value)],
)
def test_table_constant_columns_keep_their_bytes(style, value, position):
    rows = BLOCK + 1
    columns = list(_varying(style, rows))
    columns.insert(position, np.full(rows, value))
    texts = ['{"a": ', ", ", ", ", "}\n"]
    written = "".join(tsio.row_blocks(columns, [style] * 3, texts))
    assert _rows(written) == _expected_rows(columns, style, texts)


@pytest.mark.parametrize("style", _STYLES)
def test_a_column_constant_in_one_block_is_formatted_per_block(monkeypatch, style):
    rows = 2 * BLOCK
    f = np.linspace(1e8, 145e9, rows)
    flat = np.full(rows, -123.25)
    flat[BLOCK:] = _wrapped_phase(BLOCK)
    counts = _count_formatted(monkeypatch)
    written = "".join(tsio.row_blocks([f, flat], [style] * 2, ["", ",", "\n"]))
    assert counts == [BLOCK, 1, BLOCK, BLOCK]
    assert _rows(written) == _expected_rows([f, flat], style, ["", ",", "\n"])


@pytest.mark.parametrize("full_blocks", [0, 2])
@pytest.mark.parametrize("style", _STYLES)
def test_all_constant_tables_repeat_their_row(monkeypatch, style, full_blocks):
    rows = full_blocks * BLOCK + 1
    columns = [np.full(rows, value) for value in (1e9, -0.0, math.nan)]
    texts = ["[", ", ", ", ", "]\n"]
    counts = _count_formatted(monkeypatch)
    blocks = list(tsio.row_blocks(columns, [style] * 3, texts))
    assert counts == [1, 1, 1]
    assert _rows("".join(blocks)) == _expected_rows(columns, style, texts)
    assert [block.count("\n") for block in blocks] == [BLOCK] * full_blocks + [1]


@pytest.mark.parametrize("piece_bytes", [1, 100, numtext.PIECE_BYTES])
@pytest.mark.parametrize("style", _STYLES)
def test_pieces_hold_whole_rows_within_the_piece_bytes(monkeypatch, style, piece_bytes):
    # Each block is written in pieces of whole rows, laid out in at most
    # PIECE_BYTES bytes (so its text is no longer), or of one row where a
    # row is wider.
    monkeypatch.setattr(numtext, "PIECE_BYTES", piece_bytes)
    rows = BLOCK + 1
    columns = list(_varying(style, rows))
    texts = ["<", "|", ">\n"]
    pieces = list(tsio.row_blocks(columns, [style] * 2, texts))
    assert _rows("".join(pieces)) == _expected_rows(columns, style, texts)
    assert all(piece.endswith(">\n") for piece in pieces)
    for piece in pieces:
        assert len(piece) <= piece_bytes or piece.count("\n") == 1


def _csv_text(value):
    """The CSV text of a value read back from a herd JSON document."""
    if value is None:
        return "n/a"
    return "%d" % value if isinstance(value, int) else "%.12g" % value


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "a", "--from", "4e-3", "--to", "4e-3", "--steps", "1"],
        ["sweep", "--param", "a", "--from", "4e-3", "--to", "4e-3", "--steps", "1", "--fref", "1e12"],
        ["sections", "--freqs", "40e9", "--max-sections", "1"],
        ["sections", "--freqs", "40e9,130e9", "--max-sections", "1"],
        ["modes", "--fmax", "22e9"],
    ],
)
def test_one_row_tables_match_the_row_writer(tmp_path, capsys, proto, argv):
    # One row: every column is constant, and the row is fixed text alone.
    # The JSON document must be json.dumps' own text, and the CSV row the
    # %.12g (or %d, or n/a) text of the JSON row's values.
    path = tmp_path / "filter.design"
    path.write_text(dumps_design(proto))
    argv = [*argv, "--design", str(path)]
    assert main([*argv, "--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    (row,) = doc["mode_chart" if argv[0] == "modes" else "rows"]
    values = [v for item in row.values() for v in (item if isinstance(item, list) else [item])]

    assert main([*argv, "--format", "csv"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert lines[1:] == [",".join(map(_csv_text, values))]


# --- the digit engine against CPython -----------------------------------------
#
# Every style's text of each value against CPython's own %, or repr, value by
# value: on random bit patterns, most of them in and next to the exact fast
# path (1e-6 <= |x| < 1e17), on short decimals, and on the edge sets, where
# rounding and layout change.

_ENGINE_STYLES = ("%.17g", "%.12g", "text", "json", "%d")


def _written(values, style):
    """The text of ``values`` in ``style``, one per line, through the
    writers' block layout."""
    return "".join(tsio.row_blocks([values], [style], ["", "\n"]))


def _expected(values, style):
    return "".join(text + "\n" for text in _reference(values, style))


def _bit_patterns(seed, count, exponents=(0, 2048)):
    """Random float64 bit patterns, the biased exponent field drawn from
    ``exponents``: by default all of them, subnormal and non-finite too."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(-(2**63), 2**63, count, dtype=np.int64)
    bits &= ~(0x7FF << 52)
    bits |= rng.integers(*exponents, count) << 52
    return bits.view(np.float64)


# The biased exponent fields from 2**-21 < 1e-6 to 2**57 > 1e17: the exact
# fast path and the binades on either side of its bounds.
_FAST_WINDOW = (1023 - 21, 1023 + 58)


def _neighbours(values):
    """Each value, its negation, and their neighbours one ulp away."""
    values = np.concatenate([values, -values])
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


def _ties(digits, seed, count=2000):
    """Values that lie exactly halfway between two ``digits``-digit
    decimals: q / 2**j with q odd, whose decimal expansion (q * 5**j,
    shifted) has ``digits`` + 1 significant digits, the last a 5."""
    rng = np.random.default_rng(seed)
    values = []
    while len(values) < count:
        j = int(rng.integers(0, 40))
        low, high = -(-(10**digits) // 5**j), min(10 ** (digits + 1) // 5**j, 2**53)
        if low >= high:
            continue
        q = int(rng.integers(low, high)) | 1
        if q >= high or (j == 0 and q % 10 != 5):
            continue
        values.append(q / 2**j)
    return np.array(values)


def _edges():
    powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
    bounds = np.array([1e-6, 1e17, 9.999999999999999e16, 99999999999999999.0, 9999999999995e4, 0.00001, 1e16])
    subnormals = np.random.default_rng(3).integers(1, 2**52, 2000).view(np.float64)
    words = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2250738585072014e-308])
    return np.concatenate(
        [_neighbours(powers), _neighbours(bounds), _neighbours(subnormals), words,
         _ties(12, 1), _ties(17, 2), -_ties(12, 4), -_ties(17, 5)]
    )


def test_ties_lie_halfway():
    for digits in (12, 17):
        for x in _ties(digits, 0, count=200).tolist():
            text = format(Decimal(x), "f").replace(".", "").strip("0")
            assert len(text) == digits + 1 and text.endswith("5")


@pytest.mark.parametrize("style", _ENGINE_STYLES)
def test_engine_matches_cpython_on_random_bit_patterns(style):
    # a million in and next to the fast path, and 200,000 anywhere
    values = np.concatenate([_bit_patterns(1, 1_000_000, _FAST_WINDOW), _bit_patterns(2, 200_000)])
    if style == "%d":
        values = values[np.isfinite(values)]
    assert _written(values, style) == _expected(values, style)


@pytest.mark.parametrize("style", ["%.12g", "json"])
def test_engine_matches_cpython_on_short_decimals(style):
    # decimals of a few digits, which repr writes with fewer than 15
    rng = np.random.default_rng(3)
    values = (rng.uniform(-1e4, 1e4, 200_000).round(3) * 10.0 ** rng.integers(-6, 12, 200_000))
    assert _written(values, style) == _expected(values, style)


@pytest.mark.parametrize("style", _ENGINE_STYLES)
def test_column_text_takes_values_in_any_order(style):
    # The writers hand the engine sorted values, whose exponents form runs;
    # shuffled, each exponent's rows are gathered by index.
    values = np.random.default_rng(6).permutation(_edges())
    if style == "%d":
        values = np.trunc(values[np.isfinite(values)])
    assert _strings(numtext.column_text(values, style)) == _reference(values, style)


@pytest.mark.parametrize("style", _ENGINE_STYLES)
def test_engine_matches_cpython_on_the_edges(style):
    values = _edges()
    if style == "%d":
        values = np.trunc(values[np.isfinite(values)])
    assert _written(values, style) == _expected(values, style)



# --- write_touchstone --------------------------------------------------------


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", ["matched", "floor", "underflow"])
def test_model_tables_match_the_oracle(proto, kind, fmt, unit):
    table = _model_tables(proto)[kind]
    assert write_touchstone(table, fmt=fmt, unit=unit) == _oracle_write_touchstone(table, fmt, unit)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_model_table_formats_three_columns_per_block(monkeypatch, proto, fmt):
    # s11 and s22 are matched, so their four columns are constant and
    # formatted once per table; s12's pair repeats s21's. Each block formats
    # the frequency and s21's pair.
    table = filter_response(proto, FrequencyGrid.linear(1e8, 145e9, 2 * BLOCK + 1))
    counts = _count_formatted(monkeypatch)
    blocks = list(tsio.touchstone_blocks(table, fmt=fmt))
    assert counts[:4] == [1] * 4
    assert len(counts) == 4 + 3 * 3
    assert "".join(blocks) == _oracle_write_touchstone(table, fmt, "HZ")


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
    return out.read_text(), _grid(log)


# (sections, format): a Touchstone file of 10**308 sections is refused below
_ANALYZE_CASES = [
    pytest.param(sections, fmt, id=f"{name}-{fmt}")
    for sections, name in ((4, "4"), (UNDERFLOW_SECTIONS, "450"), (OVERFLOW_SECTIONS, "1e308"))
    for fmt in ("csv", "json", "touchstone")
    if (sections, fmt) != (OVERFLOW_SECTIONS, "touchstone")
]


@pytest.mark.parametrize("claims", ["default", "strict12"])
@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize(("sections", "fmt"), _ANALYZE_CASES)
def test_analyze_matches_the_oracle(tmp_path, capsys, proto, sections, fmt, log, claims):
    design = replace(proto, sections=sections)
    text, grid = _analyze(tmp_path, capsys, design, fmt, log, claims)
    s21_db = _model_s21_db(design, grid)
    if fmt == "touchstone":
        expected = _oracle_analyze_touchstone(design, grid)
    elif fmt == "json":
        doc = json.loads(text)
        expected = json.dumps({**doc, "response": _oracle_response(grid, s21_db)}, indent=2) + "\n"
        if sections == OVERFLOW_SECTIONS:
            assert any(row["s21_db"] is None for row in doc["response"])
        assert all(row["s11_db"] is None for row in doc["response"])
    else:
        rows = zip(grid.f.tolist(), s21_db.tolist(), [-math.inf] * len(grid))
        data = list(map(_ORACLE_CSV_ROW.__mod__, rows))
        comments = [line for line in text.splitlines() if line.startswith("#")]
        expected = "\n".join(["frequency_hz,s21_db,s11_db", *data, *comments]) + "\n"
    assert text == expected


def test_analyze_writes_no_touchstone_past_the_phase_range(tmp_path, capsys, proto):
    # 10**308 sections: the cascade's phase may exceed the float
    # range, where it has no value, so no Touchstone file is written
    path = tmp_path / "filter.design"
    path.write_text(dumps_design(replace(proto, sections=OVERFLOW_SECTIONS)))
    code = main(["analyze", "--design", str(path), "--format", "touchstone"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "sections exceeds the float range" in captured.err


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
        grid = _grid(True, points)
        assert doc["response"] == _oracle_response(grid, _model_s21_db(proto, grid))


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
