"""The row-shaped outputs of `herd sweep`, `sections` and `modes` against the
construction they replaced: one dict per row, built from one design per row
and written by json.dumps or by formatting each value, kept here as the
oracle. The commands now build arrays and stream them in row blocks, so the
cases run at the block edges as well as on README's lines.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from herd import (
    attenuation_vs_sections,
    coax_char_impedance,
    coax_first_higher_mode_cutoff,
    corner_frequency,
    dumps_design,
    inband_transmission,
    loads_design,
    mode_chart,
    prototype_design,
    with_aperture,
)
from herd import model
from herd.cli import main
from herd.errors import DomainError
from herd.leakage import aperture_sweep
from herd.model import swept_corners
from herd.tsio import WRITE_BLOCK_ROWS

ROWS = [1, 2, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 1]
FIELDS = {"a": "width_a", "b": "height_b", "d": "depth_d"}


# --- the oracle ---------------------------------------------------------------


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return value


def _fmt(x):
    return "n/a" if x is None else format(float(x), ".12g")


def _document(doc, fmt, keys, rows, head=()):
    if fmt == "json":
        return json.dumps(_finite(doc), indent=2) + "\n"
    lines = [*head, ",".join(keys)]
    lines += [",".join(_fmt(row[key]) for key in keys) for row in _finite(rows)]
    return "\n".join(lines) + "\n"


def oracle_sweep(design, param, start, stop, steps, fref, fmt):
    rows = []
    for value in np.linspace(start, stop, steps).tolist():
        variant = with_aperture(design, **{FIELDS[param]: value})
        corner = corner_frequency(variant)
        loss = None
        if fref < corner:
            loss = inband_transmission(variant, fref).insertion_loss_db
        rows.append({"value_m": value, "corner_frequency_hz": corner, "insertion_loss_db": loss})
    doc = {"command": "sweep", "parameter": param, "reference_frequency_hz": fref, "rows": rows}
    keys = ("value_m", "corner_frequency_hz", "insertion_loss_db")
    return _document(doc, fmt, keys, rows, [f"# sweep {param}, in-band loss at {_fmt(fref)} Hz"])


def oracle_sections(design, freqs, max_sections, fmt):
    columns = [attenuation_vs_sections(design, f, max_sections) for f in freqs]
    rows = [
        {"sections": n + 1, "attenuation_db": [column[n][1] for column in columns]}
        for n in range(max_sections)
    ]
    if fmt == "json":
        return _document({"command": "sections", "frequencies_hz": freqs, "rows": rows}, fmt, (), ())
    lines = ["sections," + ",".join(f"att_db_{_fmt(f)}hz" for f in freqs)]
    lines += [",".join([str(row["sections"]), *map(_fmt, row["attenuation_db"])]) for row in rows]
    return "\n".join(lines) + "\n"


def oracle_modes(design, fmax, fmt):
    chart = mode_chart(design.aperture, design.aperture_fill, fmax)
    rows = [{"m": e.m, "n": e.n, "cutoff_hz": e.cutoff_hz} for e in chart]
    scalars = {
        "z0_ohm": coax_char_impedance(design.coax, design.coax_fill),
        "r_inner_m": design.coax.r_inner,
        "r_outer_m": design.coax.r_outer,
        "single_mode_limit_hz": coax_first_higher_mode_cutoff(design.coax, design.coax_fill),
        "corner_frequency_hz": corner_frequency(design),
    }
    lines = [f"{key} = {_fmt(value)}" for key, value in scalars.items()]
    if fmt == "text":
        lines.append("mode chart (m, n, cutoff_hz):")
        lines += [f"  TE{row['m']}{row['n']}  {_fmt(row['cutoff_hz'])}" for row in rows]
        return "\n".join(lines) + "\n"
    doc = {"command": "modes", **scalars, "mode_chart": rows}
    return _document(doc, fmt, ("m", "n", "cutoff_hz"), rows, [f"# {line}" for line in lines])


# --- cases --------------------------------------------------------------------


def _herd(capsys, argv, design):
    """stdout of a run that exits 0 with nothing on stderr."""
    capsys.readouterr()
    code = main([argv[0], "--design", design, *argv[1:]])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.fixture
def stock(tmp_path):
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(prototype_design()))
    return str(path)


# (--param, --from, --to, --fref): rows past the corner (n/a), rows whose
# transmission underflows (n/a), and a constant corner
SWEEPS = [("a", 3e-3, 12e-3, 10e9), ("d", 1e-15, 6e-3, 10e9), ("b", 3e-3, 8e-3, 20e9)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("param, start, stop, fref", SWEEPS)
def test_sweep_matches_the_oracle(capsys, stock, fmt, rows, param, start, stop, fref):
    argv = ["sweep", "--param", param, "--from", repr(start), "--to", repr(stop),
            "--steps", str(rows), "--fref", repr(fref), "--format", fmt]
    expected = oracle_sweep(prototype_design(), param, start, stop, rows, fref, fmt)
    assert _herd(capsys, argv, stock) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("freqs", [[70e9], [10e9, 40e9, 130e9]])
def test_sections_match_the_oracle(capsys, stock, fmt, rows, freqs):
    argv = ["sections", "--freqs", ",".join(map(repr, freqs)), "--max-sections", str(rows),
            "--format", fmt]
    assert _herd(capsys, argv, stock) == oracle_sections(prototype_design(), freqs, rows, fmt)


# A height with no simple ratio to the width, so that no two modes share a
# cutoff and a chart can hold any number of rows.
SKEWED = with_aperture(prototype_design(), height_b=5.123456789e-3)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("rows", ROWS)
def test_mode_chart_matches_the_oracle(capsys, tmp_path, fmt, rows):
    path = tmp_path / "skewed.design"
    path.write_text(dumps_design(SKEWED))
    chart = mode_chart(SKEWED.aperture, SKEWED.aperture_fill, 3.2e12)
    fmax = chart[rows - 1].cutoff_hz
    assert len(mode_chart(SKEWED.aperture, SKEWED.aperture_fill, fmax)) == rows
    argv = ["modes", "--fmax", repr(fmax), "--format", fmt]
    assert _herd(capsys, argv, str(path)) == oracle_modes(SKEWED, fmax, fmt)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("fmax", [1e9, 30e9, None])
def test_stock_mode_chart_matches_the_oracle(capsys, stock, fmt, fmax):
    # --fmax 1e9 lies below every cutoff: an empty chart, [] in JSON
    argv = ["modes", "--format", fmt] + ([] if fmax is None else ["--fmax", repr(fmax)])
    proto = prototype_design()
    expected = oracle_modes(proto, 2.0 * corner_frequency(proto) if fmax is None else fmax, fmt)
    assert _herd(capsys, argv, stock) == expected
    if fmax == 1e9 and fmt == "json":
        assert json.loads(expected)["mode_chart"] == []


# README's lines that reproduce the paper's results, and CI's
README_LINES = [
    (["sweep", "--param", "a", "--from", "3e-3", "--to", "6e-3", "--steps", "40"],
     lambda fmt: oracle_sweep(prototype_design(), "a", 3e-3, 6e-3, 40, 10e9, fmt)),
    (["sweep", "--param", "b", "--from", "3e-3", "--to", "8e-3", "--steps", "40"],
     lambda fmt: oracle_sweep(prototype_design(), "b", 3e-3, 8e-3, 40, 10e9, fmt)),
    (["sweep", "--param", "d", "--from", "1e-300", "--to", "6e-3", "--steps", "4"],
     lambda fmt: oracle_sweep(prototype_design(), "d", 1e-300, 6e-3, 4, 10e9, fmt)),
    (["sections", "--freqs", "40e9,60e9,130e9", "--max-sections", "8"],
     lambda fmt: oracle_sections(prototype_design(), [40e9, 60e9, 130e9], 8, fmt)),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("line", range(len(README_LINES)))
def test_readme_lines_match_the_oracle(capsys, stock, fmt, line):
    argv, oracle = README_LINES[line]
    assert _herd(capsys, [*argv, "--format", fmt], stock) == oracle(fmt)


# --- the sweep without designs -----------------------------------------------

# widths and heights at the edges of what a design takes: zero, signed and
# subnormal sides, sides whose corner overflows or is too small for the
# stopband blend, and non-finite values
EDGE_SIDES = [0.0, -0.0, -1e-3, 5e-324, 1e-310, 1e-308, 1e-300, 3e-3, 1e300, 1.7e308,
              math.inf, -math.inf, math.nan]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("param", sorted(FIELDS))
@pytest.mark.parametrize("eps_r", [2.2, 1e14])
def test_swept_values_build_exactly_where_with_aperture_builds(param, eps_r):
    text = dumps_design(prototype_design())
    design = loads_design(text.replace("aperture_eps_r = 2.2", f"aperture_eps_r = {eps_r!r}"))
    values = np.array(EDGE_SIDES)
    corner, ok = swept_corners(design, FIELDS[param], values)
    for value, built, fc in zip(values.tolist(), ok.tolist(), corner.tolist()):
        try:
            variant = with_aperture(design, **{FIELDS[param]: value})
        except DomainError:
            assert not built, value
        else:
            assert built, value
            assert fc == corner_frequency(variant)


def test_a_sweep_builds_no_design(monkeypatch):
    proto = prototype_design()
    values = np.linspace(3e-3, 6e-3, 50)

    def refused(*args, **kwargs):
        raise AssertionError("a design was built")

    monkeypatch.setattr(model.FilterDesign, "__post_init__", refused)
    corner, loss = aperture_sweep(proto, "width_a", values, 10e9)
    assert corner.shape == loss.shape == (50,)


# --- memory -------------------------------------------------------------------

# A streamed table holds its arrays (8 bytes per value), the temporaries of
# the closed form that computes them and one block of text: at 2e5 rows about
# 2.4x the arrays' bytes for a sweep and 1.4x for sections. The per-row dicts
# and the whole document as one string peaked at 19x (sweep CSV) to 68x
# (sections JSON).
MEMORY_MULTIPLE = 3.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, columns",
    [
        (["sweep", "--param", "a", "--from", "3e-3", "--to", "12e-3", "--steps", "200000"], 3),
        (["sections", "--freqs", "40e9,80e9", "--max-sections", "200000"], 3),
    ],
)
def test_traced_peak_is_bounded_by_the_arrays(tmp_path, capsys, stock, fmt, argv, columns):
    array_bytes = 8 * columns * 200_000
    out = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        code = main([argv[0], "--design", stock, *argv[1:], "--format", fmt, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < MEMORY_MULTIPLE * array_bytes
