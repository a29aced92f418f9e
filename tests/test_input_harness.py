"""Input harness: random design and spec files through every command line.

Each numeric field of the stock design and the reference spec is kept, or
scaled by 10**u with u in [-8, 8] or in [-300, 300]; counts are clipped to
1..10**6. Every command must end in a result or a refusal: an exit code of
0-3, no exception or warning, nothing on stderr unless the input was
refused or the design is infeasible, and no NaN or infinity in JSON's
spelling on stdout. Each `analyze` table that is written holds all of its
rows, and each of its numbers is the canonical text of its own value.

The `ci` hypothesis profile (HYPOTHESIS_PROFILE=ci) runs more examples."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from herd import DominantModeAxis, cli, prototype_design
from herd.model import DESIGN_FILE
from herd.synthesis import SPEC_FILE, loads_design_spec

ROOT = Path(__file__).resolve().parents[1]
DESIGN = DESIGN_FILE.values(prototype_design())
SPEC = SPEC_FILE.values(loads_design_spec((ROOT / "configs" / "reference_targets.spec").read_text()))

# "dominant" holds "nan", and a key may hold any word: the tokens must stand alone.
NOT_FINITE = re.compile(r"\b(nan|NaN|Infinity)\b")

EXPONENTS = st.one_of(st.floats(-8.0, 8.0), st.floats(-300.0, 300.0))


def scaled(value):
    """``value`` kept or scaled by 10**u; a count is clipped to 1..10**6."""
    if isinstance(value, str):  # the dominant-mode axis
        return st.sampled_from([axis.value for axis in DominantModeAxis])
    if isinstance(value, int):
        grown = EXPONENTS.map(lambda u: round(min(max(value * 10.0**u, 1.0), 1e6)))
        return st.one_of(st.just(value), grown)
    return st.one_of(st.just(value), EXPONENTS.map(lambda u: value * 10.0**u))


def drawn_values(values: dict):
    return st.fixed_dictionaries({key: scaled(value) for key, value in values.items()})


def key_value_text(values: dict) -> str:
    texts = {key: value if isinstance(value, str) else repr(value) for key, value in values.items()}
    return "".join(f"{key} = {text}\n" for key, text in texts.items())


def command_lines(design: str, spec: str, dims: dict) -> list[list[str]]:
    lines = []
    for spacing in ([], ["--log"]):
        for fmt in ("csv", "json", "touchstone"):
            lines.append(["analyze", "--design", design, "--points", "50", "--format", fmt, *spacing])
    for param, key in (("a", "a_m"), ("b", "b_m"), ("d", "d_m")):
        value = dims[key]
        sweep = ["--from", repr(value / 2.0), "--to", repr(value * 2.0), "--steps", "5"]
        lines.append(["sweep", "--design", design, "--param", param, *sweep])
    lines.append(["sections", "--design", design, "--freqs", "1e9,70e9,145e9", "--max-sections", "8"])
    lines.append(["modes", "--design", design])
    lines.append(["synthesize", "--spec", spec])
    return lines


def assert_canonical(form: str, token: str):
    assert form % float(token) == token, f"{token!r} is not the {form} text of its value"


def analyze_rows(fmt: str, out: str) -> list[list]:
    """The rows of the table `analyze` writes on stdout, each number checked
    to be the canonical text of its value: %.12g in CSV, %.17g in Touchstone
    rows and the repr of every float in JSON."""
    if fmt == "json":
        def number(token):
            assert_canonical("%r", token)
            return float(token)

        return [list(row.values()) for row in json.loads(out, parse_float=number)["response"]]
    lines = [line for line in out.splitlines() if line and line[0] not in "#!"]
    rows = [line.split(",") for line in lines[1:]] if fmt == "csv" else [line.split() for line in lines]
    for row in rows:
        for token in row:
            assert_canonical("%.12g" if fmt == "csv" else "%.17g", token)
    return rows


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(design_values=drawn_values(DESIGN), spec_values=drawn_values(SPEC))
def test_every_command_ends_in_a_result_or_a_refusal(design_values, spec_values):
    with tempfile.TemporaryDirectory() as tmp:
        design, spec = Path(tmp) / "random.design", Path(tmp) / "random.spec"
        design.write_text(key_value_text(design_values))
        spec.write_text(key_value_text(spec_values))
        for argv in command_lines(str(design), str(spec), design_values):
            code, out, err = run(argv)
            assert code in (0, 1, 2, 3), (argv, code, err)
            if code in (0, 1):
                assert err == "", (argv, code, err)
            assert not NOT_FINITE.search(out), (argv, NOT_FINITE.search(out).group())
            if code in (0, 1) and argv[0] == "analyze":
                fmt = argv[argv.index("--format") + 1]
                width = 9 if fmt == "touchstone" else 3
                assert [len(row) for row in analyze_rows(fmt, out)] == [width] * 50, argv
