"""Exact decimal text of float64 arrays, a column at a time.

A column's text is a NUL-padded ``uint8`` matrix, one row per value; a block
of rows is laid out, a piece at a time, as one matrix of its columns and the
fixed texts between them, and turned into text by deleting the NULs. The
bytes are those of CPython's ``"%.17g" % x``, ``"%.12g" % x``,
``"%d" % x`` and ``repr(x)``.

Digits come from exact arithmetic. For 1e-6 <= |x| < 1e17, with
s = 16 - floor(log10 |x|) in [0, 22], 10**s is an exact float and Dekker's
error-free product (Dekker 1971) gives x * 10**s = p + e exactly: the first
17 digits D = p + floor(e) and the remainder e - floor(e), from which any
shorter precision rounds half-even like CPython's dtoa. ``repr`` takes the
first of the correctly rounded 15-, 16- and 17-digit values that reads back
as x, read back by Clinger's exact fast path (Clinger 1990): an integer that
is exact as a float, times or divided by an exact power of ten. Every other
value (zero, -0, non-finite, subnormal, outside the range; under ``repr`` a
power of two, whose rounding interval is lopsided, and a value whose
16-digit integer is not exact as a float) is formatted by CPython, one value
at a time. ``"%d"`` is written as ``"%.17g"`` of each value's integer
part, which has the same text below 1e17.
"""

from __future__ import annotations

import math

import numpy as np

# 10**s for s = 0..22, each exact in float64, split into halves of 26 bits
# for Dekker's product (Veltkamp's split, with 2**27 + 1).
_POW10 = np.array([float(10**s) for s in range(23)])
_SPLIT = 134217729.0


def _halves(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)

# The styles that write a word for a value that is not finite: each one's
# CPython formatter of a finite float, and the word.
_NON_FINITE = {"json": (float.__repr__, "null"), "text": ("%.12g".__mod__, "n/a")}

# Significant digits of each %g-like style: ``json`` takes 15, 16 or 17, and
# ``"%d"`` is written as ``"%.17g"``.
_DIGITS = {"%.17g": 17, "%d": 17, "%.12g": 12, "text": 12, "json": 17}


def _scaled(a, s):
    """(D, e, floor(e)) with a * 10**s = D + (e - floor(e)), exactly: D the
    integer part as int64 and e the error of the float product."""
    a_high, a_low = _halves(a)
    p = a * _POW10[s]
    high, low = _POW10_HIGH[s], _POW10_LOW[s]
    e = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    floor = np.floor(e)
    return p.astype(np.int64) + floor.astype(np.int64), e, floor


def _seventeen(a):
    """(D, e, floor(e), X, exact) for positive ``a`` in [1e-6, 1e17): D the
    17-digit integer with a = (D + e - floor(e)) * 10**(X - 16), and whether
    the lane was worked out (a few near the range ends are not)."""
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    np.minimum(np.maximum(s, 0, out=s), 22, out=s)
    D, e, floor = _scaled(a, s)
    # log10 may miss by one next to a power of ten: rescale those lanes
    step = (D < 10**16).astype(np.int64) - (D >= 10**17)
    moved = np.flatnonzero(step)
    if len(moved):
        s[moved] += step[moved]
        exact = (s >= 0) & (s <= 22)
        moved = moved[exact[moved]]
        D[moved], e[moved], floor[moved] = _scaled(a[moved], s[moved])
        exact &= (D >= 10**16) & (D < 10**17)
    else:
        exact = True
    return D, e, floor, 16 - s, exact


def _rounded(D, e, floor, X, digits):
    """D rounded half-even to ``digits`` significant digits, and X moved up
    where the rounding carries into a new digit."""
    if digits == 17:
        half = floor + 0.5
        up = (e > half) | ((e == half) & (D & 1 == 1))
        d = D + up
    else:
        unit = 10 ** (17 - digits)
        d = D // unit
        rest = D - d * unit
        half = unit // 2
        up = (rest > half) | ((rest == half) & ((e > floor) | (d & 1 == 1)))
        d += up
    carry = d == 10**digits
    d[carry] = 10 ** (digits - 1)
    return d, X + carry


def _reads_back(d, X, digits, a):
    """Whether the decimal d * 10**(X - digits + 1) reads back as ``a``,
    for d exact as a float (Clinger's fast path: one correctly rounded
    product or quotient of exact floats)."""
    k = X - (digits - 1)
    f = d.astype(np.float64)
    power = _POW10[np.abs(k)]
    return np.where(k >= 0, f * power, f / power) == a


def _shortest(a, fast):
    """repr's digits of ``a`` as 17-digit integers (trailing zeros beyond
    its shortest digits), their exponents, and the lanes left to CPython."""
    D, e, floor, X, exact = _seventeen(a)
    fast &= exact
    d15, x15 = _rounded(D, e, floor, X, 15)
    d16, x16 = _rounded(D, e, floor, X, 16)
    d17, x17 = _rounded(D, e, floor, X, 17)
    # every 15-digit integer is exact as a float; a 16-digit one where it
    # is below 2**53 or even
    ok15 = _reads_back(d15, x15, 15, a)
    exact16 = (d16 < 2**53) | (d16 & 1 == 0)
    ok16 = exact16 & _reads_back(d16, x16, 16, a)
    # Past a failed 15-digit check, 17 digits are due only where the
    # 16-digit value could be checked.
    fast &= ok15 | exact16
    d = np.where(ok15, d15 * 100, np.where(ok16, d16 * 10, d17))
    X = np.where(ok15, x15, np.where(ok16, x16, x17))
    return d, X, fast


_U = np.uint64


def _digit_words(d, words):
    """The last 8 * ``words`` decimal digits of each non-negative int64 of
    ``d`` as a (words, rows) uint64 array, one digit 0-9 per byte, most
    significant first in memory. Each 8-digit part is split in SIMD-within-
    a-register steps: into 4-digit halves, 2-digit quarters, then digits."""
    parts = np.empty((words, len(d)), _U)
    for k in range(words - 1, -1, -1):
        rest = d // 10**8
        parts[k] = d - rest * 10**8
        d = rest
    # The first digits go to the low bytes, which little-endian order puts
    # first.
    high = parts // _U(10000)
    parts -= high * _U(10000)
    parts <<= _U(32)
    parts |= high
    high = parts * _U(5243)  # / 100 for a 4-digit lane, by multiply and shift
    high >>= _U(19)
    high &= _U(0x0000007F0000007F)
    parts -= high * _U(100)
    parts <<= _U(16)
    parts |= high
    high = parts * _U(103)  # / 10 for a 2-digit lane
    high >>= _U(10)
    high &= _U(0x000F000F000F000F)
    parts -= high * _U(10)
    parts <<= _U(8)
    parts |= high
    return parts


# The low c bytes of a word set, for c = 0..8.
_LOW_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], _U)
_ASCII_ZEROS = _U(0x3030303030303030)


def _digit_text(d, digits, least):
    """The ``digits`` digits of each int64 of ``d`` as ASCII in a (rows,
    digits) uint8 view, blank (NUL) past the last nonzero digit but for the
    first ``least`` digits of each row."""
    words = -(-digits // 8)
    pad = 8 * words - digits
    parts = _digit_words(d, words)
    # The highest nonzero byte of a word, from its exponent as a float:
    # rounding cannot carry into the next byte, whose top bits are 0.
    last = ((parts.astype(np.float64).view(np.int64) >> 52) - 1023) >> 3
    keep = last[0]
    for k in range(1, words):
        keep = np.maximum(keep, last[k] + 8 * k)
    keep = np.maximum(keep + 1 - pad, least) + pad
    bytes_kept = keep - np.arange(0, 8 * words, 8)[:, None]
    np.minimum(np.maximum(bytes_kept, 0, out=bytes_kept), 8, out=bytes_kept)
    parts |= _ASCII_ZEROS
    parts &= _LOW_BYTES[bytes_kept]
    rows = np.ascontiguousarray(parts.T).astype("<u8", copy=False)
    return rows.view(np.uint8).reshape(len(d), 8 * words)[:, pad:]


def _float_text(values, style, fast):
    """The text of the fast lanes of a %g-like or ``json`` column, as a
    NUL-padded (rows, width) uint8 matrix, and the lanes worked out: a lane
    outside ``fast``, or dropped from it, is left for CPython."""
    digits = _DIGITS[style]
    a = np.where(fast, np.abs(values), 1.0)
    if style == "json":
        d, X, fast = _shortest(a, fast)
    else:
        D, e, floor, X, exact = _seventeen(a)
        fast &= exact
        d, X = _rounded(D, e, floor, X, digits)
    # %g writes positional text for -4 <= X < digits, repr for -4 <= X < 16
    top = 16 if style == "json" else digits

    # Rows of one exponent share a layout, written with slice copies over
    # one run of rows. Where an exponent's rows form more than one run (a
    # wrapped phase, a column of both signs), the rows are laid out in order
    # of their exponent and put back in place at the end.
    key = np.where(fast, X, 99)
    edges = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    keys = key[[0, *edges]].tolist()
    order = None
    if len(set(keys)) < len(keys):
        order = np.argsort(key, kind="stable")
        key, d, X, values = key[order], d[order], X[order], values[order]
        edges = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        keys = key[[0, *edges]].tolist()
    groups = [
        (x, slice(start, stop))
        for x, start, stop in zip(keys, [0, *edges], [*edges, len(key)])
        if x != 99
    ]
    # Digits past the last nonzero one are blank, but positional text keeps
    # its integer digits, and repr a zero after the point.
    integer = np.where((X >= 0) & (X < top), X + 1 + (style == "json"), 1)
    dg = _digit_text(d, digits, integer)
    widths = [digits + 2 - min(x, 0) if -4 <= x < top else digits + 6 for x, _ in groups]
    out = np.zeros((len(values), max(widths, default=1)), np.uint8)
    out[:, 0] = np.where(values < 0, 45, 0)
    for x, rows in groups:
        row_digits = dg[rows]
        if -4 <= x < 0:
            out[rows, 1 : 2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            out[rows, 2 - x : 2 - x + digits] = row_digits
            continue
        # the digits before the point: all of them up to the exponent, or one
        ahead = x + 1 if 0 <= x < top else 1
        out[rows, 1 : 1 + ahead] = row_digits[:, :ahead]
        if ahead < digits:
            out[rows, 1 + ahead] = np.where(row_digits[:, ahead] != 0, 46, 0)
            out[rows, 2 + ahead : 2 + digits] = row_digits[:, ahead:]
        if not 0 <= x < top:
            out[rows, 2 + digits : 6 + digits] = np.frombuffer(b"e%+03d" % x, np.uint8)
    if order is not None:
        placed = np.empty_like(out)
        placed[order] = out
        out = placed
    return out, fast


def column_text(values: np.ndarray, style: str) -> np.ndarray:
    """The text of each value of a float64 column in ``style``, as a
    NUL-padded (rows, width) uint8 matrix: row i holds the bytes of value i
    and NULs, which the writer deletes.

    Styles: ``"%.17g"``, ``"%.12g"``, ``"%d"`` (a column of integers);
    ``"json"``: repr, and ``null`` for a non-finite value; ``"text"``:
    ``"%.12g"``, and ``n/a`` for a non-finite value.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not len(values):
        return np.zeros((0, 1), np.uint8)
    if style == "%d":
        # "%d" writes the integer part, whose "%.17g" text below 1e17 is the
        # same. Zero, -0.0 included, is written by CPython's "%d" below.
        values = np.trunc(values)
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-6) & (magnitude < 1e17)
    if style == "json":
        # a power of two: its mantissa bits are 0
        fast &= (values.view(np.int64) & (2**52 - 1)) != 0
    if fast.any():
        out, fast = _float_text(values, style, fast)
    else:
        out = np.zeros((len(values), 1), np.uint8)
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return out
    form, word = _NON_FINITE.get(style, (style.__mod__, None))
    texts = [
        (form(x) if word is None or math.isfinite(x) else word).encode("ascii")
        for x in values[slow].tolist()
    ]
    width = max(map(len, texts))
    if width > out.shape[1]:
        out = np.concatenate([out, np.zeros((len(out), width - out.shape[1]), np.uint8)], axis=1)
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    out[slow, :width] = np.frombuffer(padded, np.uint8).reshape(-1, width)
    out[slow, width:] = 0
    return out


# A block's text is laid out and turned into text this many bytes of layout
# at a time. Buffers of that size are reused from the heap, where a block's
# layout, its bytes and its text (hundreds of KB each) would be fresh memory
# in each block and cost their page faults.
PIECE_BYTES = 1 << 16


def block_pieces(matrices, texts):
    """The rows of one block as text, in pieces of whole rows: per row,
    ``texts[0]``, the row of the first matrix, ``texts[1]``, ..., the row
    of the last, ``texts[-1]``. The texts are ASCII without NUL. Each piece
    is laid out in at most ``PIECE_BYTES`` bytes, or holds one row."""
    fixed = [np.frombuffer(text.encode("ascii"), np.uint8) for text in texts]
    rows = len(matrices[0])
    width = sum(map(len, fixed)) + sum(m.shape[1] for m in matrices)
    step = max(1, PIECE_BYTES // width)
    out = np.empty((min(rows, step), width), np.uint8)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        part = out[: stop - start]
        at = 0
        for text, matrix in zip(fixed, [*matrices, None]):
            part[:, at : at + len(text)] = text
            at += len(text)
            if matrix is not None:
                part[:, at : at + matrix.shape[1]] = matrix[start:stop]
                at += matrix.shape[1]
        yield part.tobytes().translate(None, b"\0").decode("ascii")
