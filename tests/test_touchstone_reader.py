"""The Touchstone reader against the line-by-line parser it replaced.

``_oracle_parse_touchstone`` reads every line in Python: ``str.splitlines``,
``str.split`` and ``float`` per token, then the same value checks on the
whole block. ``parse_touchstone`` reads data rows with numpy's text reader
and must agree with it on every text: the same table, bit for bit, or the
same ``ParseError`` message and line.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herd import FrequencyGrid, ParseError, Provenance, SParamTable, parse_touchstone, tsio

FREQUENCY_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")
_BLOCK_ROWS = 1024


def _oracle_pairs_to_complex(fmt, first, second):
    if fmt == "RI":
        out = np.empty(first.shape, dtype=complex)
        out.real = first
        out.imag = second
        return out
    mag = first if fmt == "MA" else 10.0 ** (first / 20.0)
    return mag * np.exp(1j * np.radians(second))


def _oracle_parse_touchstone(text):
    unit_scale = None
    fmt = None
    z0 = 50.0
    mag_only = False
    blocks = []
    rows = []
    row_lines = []
    lineno = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        bang = line.find("!")
        if bang >= 0:
            if line[bang + 1 :].strip().upper() == "MAGONLY":
                mag_only = True
            line = line[:bang]
        line = line.strip()
        if not line:
            continue

        if line.startswith("["):
            raise ParseError("Touchstone v2 blocks are not supported", line=lineno)

        if line.startswith("#"):
            if fmt is not None:
                raise ParseError("more than one option line", line=lineno)
            tokens = line[1:].split()
            if (
                len(tokens) != 5
                or tokens[0].upper() not in FREQUENCY_UNITS
                or tokens[1].upper() != "S"
                or tokens[2].upper() not in FORMATS
                or tokens[3].upper() != "R"
            ):
                raise ParseError(
                    f"malformed option line {raw.strip()!r}; expected "
                    "'# <HZ|KHZ|MHZ|GHZ> S <RI|MA|DB> R <impedance>'",
                    line=lineno,
                )
            try:
                z0 = float(tokens[4])
            except ValueError:
                raise ParseError(f"bad reference impedance {tokens[4]!r}", line=lineno) from None
            if not (math.isfinite(z0) and z0 > 0.0):
                raise ParseError(
                    f"reference impedance must be finite and > 0 ohm (got {tokens[4]!r})",
                    line=lineno,
                )
            unit_scale = FREQUENCY_UNITS[tokens[0].upper()]
            fmt = tokens[2].upper()
            continue

        if fmt is None:
            raise ParseError("data row before the option line", line=lineno)
        tokens = line.split()
        if len(tokens) != 9:
            raise ParseError(f"expected 9 columns, got {len(tokens)}", line=lineno)
        try:
            rows.append(list(map(float, tokens)))
        except ValueError:
            raise ParseError(f"non-numeric data in row {raw.strip()!r}", line=lineno) from None
        row_lines.append(lineno)
        if len(rows) == _BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows.clear()

    if fmt is None:
        raise ParseError("missing option line", line=lineno)
    if not row_lines:
        raise ParseError("no data rows", line=lineno)

    blocks.append(np.array(rows, dtype=float).reshape(-1, 9))
    data = np.concatenate(blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        f_hz = data[:, 0] * unit_scale
        s11, s21, s12, s22 = (
            _oracle_pairs_to_complex(fmt, data[:, col], data[:, col + 1]) for col in (1, 3, 5, 7)
        )
    finite = np.isfinite(data).all(axis=1) & np.isfinite(f_hz)
    converted = np.isfinite(s11) & np.isfinite(s21) & np.isfinite(s12) & np.isfinite(s22)
    bad = ~(finite & converted & (f_hz > 0.0))
    bad[1:] |= ~(f_hz[1:] > f_hz[:-1])
    if bad.any():
        i = int(bad.argmax())
        f = f_hz[i].item()
        if not finite[i]:
            message = f"non-finite value in row {data[i].tolist()!r}"
        elif not converted[i]:
            message = f"S-parameter overflows in row {data[i].tolist()!r}"
        elif not f > 0.0:
            message = f"frequency must be > 0 Hz (got {f!r} Hz)"
        else:
            before = f_hz[i - 1].item()
            message = f"frequencies must be strictly increasing ({before!r} Hz -> {f!r} Hz)"
        raise ParseError(message, line=row_lines[i])

    if mag_only:
        s11, s21, s12, s22 = (np.abs(s).astype(complex) for s in (s11, s21, s12, s22))
    return SParamTable(
        grid=FrequencyGrid(f_hz),
        provenance=Provenance.MEASURED,
        mag_only=mag_only,
        s11=s11,
        s21=s21,
        s12=s12,
        s22=s22,
        z0=z0,
    )


def _outcome(parse, text):
    try:
        table = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    arrays = (table.f, table.s11, table.s21, table.s12, table.s22)
    bits = tuple(np.ascontiguousarray(a).view(np.int64).tolist() for a in arrays)
    return ("table", bits, table.mag_only, table.z0)


_BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028"]
_GAPS = [" ", "  ", "\t", " \t ", "\xa0", " \xa0"]
_COMMENTS = ["!MAGONLY", "!! MAGONLY", "!MAGONLY!x", "! magonly ", "! note", "!"]
_LINES = _COMMENTS + ["", "   ", "\t", "\xa0", "# HZ S RI R 50", "[Version] 2.0", "#"]
# "1_0" and "\u0661" (Arabic-Indic one) are numbers to float() but not to numpy
_TOKENS = ["1_0", "\u0661", "inf", "-inf", "nan", "1e999", "1e308", "1e-999", "-0", "x", "1,5"]


def _row_values(draw, fmt, f):
    values = [f]
    for _ in range(4):
        if fmt == "RI":
            values += [draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))]
        elif fmt == "MA":
            values += [draw(st.floats(0.0, 2.0)), draw(st.floats(-180.0, 180.0))]
        else:
            values += [draw(st.floats(-200.0, 10.0)), draw(st.floats(-180.0, 180.0))]
    return [repr(v) for v in values]


@st.composite
def _texts(draw):
    """A file mixing valid rows, comments, blank lines, odd whitespace and
    line breaks, and up to three faults: an odd token, a token dropped or
    added, a repeated frequency, or an extra line; and now and then a bad
    reference impedance or no option line."""
    fmt = draw(st.sampled_from(FORMATS))
    unit = draw(st.sampled_from(["HZ", "ghz", "MHz", "KHZ"]))
    lines = [draw(st.sampled_from(_LINES)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.sampled_from([True] * 9 + [False])):
        z0 = draw(st.sampled_from(["50"] * 9 + ["75.5", "0", "x"]))
        lines.append(f"# {unit} S {fmt} R {z0}")
    freqs = sorted(draw(st.lists(st.floats(1e-3, 1e12), min_size=1, max_size=8, unique=True)))
    if draw(st.sampled_from([False] * 9 + [True])):
        freqs = []
    rows = [_row_values(draw, fmt, f) for f in freqs]
    width = draw(st.sampled_from([9, 9, 9, 8, 10]))
    for row in rows:
        del row[width:]
        row += ["0"] * (width - len(row))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["token", "drop", "add", "repeat"]))
        if fault == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_TOKENS))
        elif fault == "drop":
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "add":
            row.append(draw(st.sampled_from(["0", "1.5"])))
        else:
            row[0] = rows[0][0]
    for row in rows:
        line = draw(st.sampled_from(_GAPS)).join(row)
        if draw(st.integers(0, 3)) == 0:
            line += draw(st.sampled_from(_GAPS)) + draw(st.sampled_from(_COMMENTS))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_LINES)))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(_BREAKS))
    return text


@settings(max_examples=1000)
@given(_texts())
def test_agrees_with_the_line_by_line_parser(text):
    assert _outcome(parse_touchstone, text) == _outcome(_oracle_parse_touchstone, text)


@settings(max_examples=300)
@given(st.text())
def test_agrees_on_any_text(text):
    assert _outcome(parse_touchstone, text) == _outcome(_oracle_parse_touchstone, text)


def _file(fmt, newline="\n", mag_only=False):
    lines = ["! measured", "!MAGONLY" if mag_only else "! no directive", f"# GHZ S {fmt} R 50"]
    for i in range(1, 40):
        lines.append(" ".join(["%r" % (i * 0.5)] + ["%r" % (0.01 * i)] * 8))
        if i % 7 == 0:
            lines.append("! marker")
    return newline.join(lines) + newline


@pytest.mark.parametrize(
    "text",
    [
        _file("RI"),
        _file("MA"),
        _file("DB"),
        _file("MA", mag_only=True),
        _file("RI", newline="\r\n"),
    ],
    ids=["RI", "MA", "DB", "MAGONLY", "CRLF"],
)
def test_valid_files_never_enter_the_row_walk(monkeypatch, text):
    calls = []
    walk = tsio._walk_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(tsio, "_walk_rows", counted)
    table = parse_touchstone(text)
    assert len(table.f) == 39
    assert calls == []
    # a repeated frequency needs its line number: the walk names it
    with pytest.raises(ParseError) as err:
        parse_touchstone(text.replace("1.0 ", "0.5 ", 1))
    assert err.value.line == 5
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text",
    [
        "# HZ S RI R 50\n1_0 0 0 1 0 1 0 0 0\n",
        "# HZ S RI R 50\n1 0 0 1 0 1 0 0 \u0661\n",
        "# HZ S RI R 50\n1\x1f2 0 0 1 0 1 0 0\n",
    ],
)
def test_numbers_only_float_reads_give_the_same_table(text):
    table = parse_touchstone(text)
    assert _outcome(parse_touchstone, text) == _outcome(_oracle_parse_touchstone, text)
    assert len(table.f) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("# HZ S RI R 50", 1),
        ("# HZ S RI R 50\n! only a comment\n\n", 3),
        ("# HZ S RI R 50\n \t\n", 2),
    ],
)
def test_no_data_rows_after_the_option_line(text, line):
    # numpy's "input contained no data" warning is a test failure here
    with pytest.raises(ParseError, match="no data rows") as err:
        parse_touchstone(text)
    assert err.value.line == line
