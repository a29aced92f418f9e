"""The layout of every `herd` output document, with its numbers masked.

Each case runs one subcommand in one ``--format`` on a small input, replaces
every number in what it writes with ``<n>``, and compares the result with a
template. The templates pin keys, order, indentation, comment lines and the
words ``null``, ``n/a`` and ``-inf``; the digits are left to the tests of each
command, since the last digit of a float may differ between numpy builds.
"""

import re
from pathlib import Path

import pytest

from herd import dumps_design, prototype_design
from herd.cli import main

# A number that is not part of a word: not the 01 of TE01, the 21 of s21_db
# or the digits of att_db_40000000000hz.
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

SPEC = str(Path(__file__).resolve().parents[1] / "configs" / "reference_targets.spec")

MODES_SCALARS = """\
z0_ohm = <n>
r_inner_m = <n>
r_outer_m = <n>
single_mode_limit_hz = <n>
"""

MODES_SOLVE_CSV = "".join(f"# {line}\n" for line in MODES_SCALARS.splitlines())

MODES_TEXT = MODES_SCALARS + """\
corner_frequency_hz = <n>
mode chart (m, n, cutoff_hz):
  TE01  <n>
  TE10  <n>
"""

MODES_CSV = """\
# z0_ohm = <n>
# r_inner_m = <n>
# r_outer_m = <n>
# single_mode_limit_hz = <n>
# corner_frequency_hz = <n>
m,n,cutoff_hz
<n>,<n>,<n>
<n>,<n>,<n>
"""

MODES_JSON = """\
{
  "command": "modes",
  "z0_ohm": <n>,
  "r_inner_m": <n>,
  "r_outer_m": <n>,
  "single_mode_limit_hz": <n>,
  "corner_frequency_hz": <n>,
  "mode_chart": [
    {
      "m": <n>,
      "n": <n>,
      "cutoff_hz": <n>
    },
    {
      "m": <n>,
      "n": <n>,
      "cutoff_hz": <n>
    }
  ]
}
"""

MODES_SOLVE_JSON = """\
{
  "command": "modes",
  "z0_ohm": <n>,
  "r_inner_m": <n>,
  "r_outer_m": <n>,
  "single_mode_limit_hz": <n>,
  "corner_frequency_hz": null,
  "mode_chart": null
}
"""

METRIC_LINE = "band [<n>, <n>] Hz: max_il=<n> dB min_att=<n> dB ripple=<n> dB worst_rl=n/a dB"

ANALYZE_CSV = f"""\
frequency_hz,s21_db,s11_db
<n>,<n>,-inf
<n>,<n>,-inf
<n>,<n>,-inf
# {METRIC_LINE}
# {METRIC_LINE}
# PASS  passband insertion loss up to <n> GHz: observed <n> dB (threshold <n> dB)
# PASS  stopband attenuation <n>-<n> GHz: observed <n> dB (threshold <n> dB)
"""

CLAIMS_JSON = """\
  "claims": [
    {
      "description": "passband insertion loss up to <n> GHz",
      "band_hz": [
        <n>,
        <n>
      ],
      "kind": "MAX_IL",
      "threshold_db": <n>,
      "observed_db": <n>,
      "passed": true,
      "error": null
    },
    {
      "description": "stopband attenuation <n>-<n> GHz",
      "band_hz": [
        <n>,
        <n>
      ],
      "kind": "MIN_ATT",
      "threshold_db": <n>,
      "observed_db": <n>,
      "passed": true,
      "error": null
    }
  ],
"""

METRIC_JSON = """\
    {
      "band_hz": [
        <n>,
        <n>
      ],
      "max_insertion_loss_db": <n>,
      "min_attenuation_db": <n>,
      "max_ripple_db": <n>,
      "worst_return_loss_db": null
    }"""

ANALYZE_JSON = f"""\
{{
  "command": "analyze",
  "grid": {{
    "start_hz": <n>,
    "stop_hz": <n>,
    "points": <n>,
    "spacing": "linear"
  }},
  "response": [
    {{
      "frequency_hz": <n>,
      "s21_db": <n>,
      "s11_db": null
    }},
    {{
      "frequency_hz": <n>,
      "s21_db": <n>,
      "s11_db": null
    }}
  ],
  "band_metrics": [
{METRIC_JSON},
{METRIC_JSON}
  ],
  "claims_profile": "default",
{CLAIMS_JSON}\
  "claims_passed": true
}}
"""

TOUCHSTONE_ROW = " ".join(["<n>"] * 9)
ANALYZE_TOUCHSTONE = f"""\
! herd S-parameter table: cascade model, <n> sections
# GHZ S DB R <n>
{TOUCHSTONE_ROW}
{TOUCHSTONE_ROW}
{TOUCHSTONE_ROW}
"""

SWEEP_CSV = """\
# sweep a, in-band loss at <n> Hz
value_m,corner_frequency_hz,insertion_loss_db
<n>,<n>,<n>
<n>,<n>,n/a
"""

SWEEP_JSON = """\
{
  "command": "sweep",
  "parameter": "a",
  "reference_frequency_hz": <n>,
  "rows": [
    {
      "value_m": <n>,
      "corner_frequency_hz": <n>,
      "insertion_loss_db": <n>
    },
    {
      "value_m": <n>,
      "corner_frequency_hz": <n>,
      "insertion_loss_db": null
    }
  ]
}
"""

SECTIONS_CSV = """\
sections,att_db_40000000000hz,att_db_130000000000hz
<n>,<n>,<n>
<n>,<n>,<n>
"""

SECTIONS_ROW = """\
    {
      "sections": <n>,
      "attenuation_db": [
        <n>,
        <n>
      ]
    }"""

SECTIONS_JSON = f"""\
{{
  "command": "sections",
  "frequencies_hz": [
    <n>,
    <n>
  ],
  "rows": [
{SECTIONS_ROW},
{SECTIONS_ROW}
  ]
}}
"""

SYNTHESIZE_TEXT = """\
a_m = <n>
b_m = <n>
d_m = <n>
r_inner_m = <n>
r_outer_m = <n>
sections = <n>
margin_passband_db = <n>
margin_stopband_db = <n>
total_length_m = <n>
design written to OUT
"""

SYNTHESIZE_JSON = """\
{
  "command": "synthesize",
  "design": {
    "a_m": <n>,
    "b_m": <n>,
    "d_m": <n>,
    "r_inner_m": <n>,
    "r_outer_m": <n>,
    "coax_eps_r": <n>,
    "aperture_eps_r": <n>,
    "apertures_per_section": <n>,
    "sections": <n>,
    "section_pitch_m": <n>,
    "stopband_kappa": <n>,
    "dominant_mode_axis": "WIDTH"
  },
  "margin_passband_db": <n>,
  "margin_stopband_db": <n>,
  "total_length_m": <n>
}
"""

COMPARE_TEXT = """\
PASS  passband insertion loss up to <n> GHz: observed <n> dB (threshold <n> dB)
PASS  stopband attenuation <n>-<n> GHz: observed <n> dB (threshold <n> dB)
band [<n>, <n>] Hz: max |IL_measured - IL_model| = <n> dB
band [<n>, <n>] Hz: max |IL_measured - IL_model| = <n> dB
"""

DEVIATION_JSON = """\
    {
      "band_hz": [
        <n>,
        <n>
      ],
      "max_abs_il_delta_db": <n>
    }"""

COMPARE_JSON = f"""\
{{
  "command": "compare",
  "claims_profile": "default",
{CLAIMS_JSON}\
  "deviations": [
{DEVIATION_JSON},
{DEVIATION_JSON}
  ],
  "mag_only": false,
  "gain_points": <n>,
  "first_gain_hz": null,
  "claims_passed": true
}}
"""

MODES = ["modes", "--design", "DESIGN", "--fmax", "30e9"]
SOLVE = ["modes", "--z0", "50", "--single-mode", "10e9"]
ANALYZE = ["analyze", "--design", "DESIGN", "--claims", "default"]
SWEEP = ["sweep", "--design", "DESIGN", "--param", "a", "--from", "4e-3", "--to", "9e-3",
         "--steps", "2", "--fref", "20e9"]
SECTIONS = ["sections", "--design", "DESIGN", "--freqs", "40e9,130e9", "--max-sections", "2"]
COMPARE = ["compare", "MODEL_S2P", "--design", "DESIGN"]

# (argv, what it writes to stdout); every case exits 0
CASES = {
    "modes-text": (MODES, MODES_TEXT),
    "modes-csv": (MODES + ["--format", "csv"], MODES_CSV),
    "modes-json": (MODES + ["--format", "json"], MODES_JSON),
    "modes-solve-text": (SOLVE, MODES_SCALARS),
    "modes-solve-csv": (SOLVE + ["--format", "csv"], MODES_SOLVE_CSV),
    "modes-solve-json": (SOLVE + ["--format", "json"], MODES_SOLVE_JSON),
    "analyze-csv": (ANALYZE + ["--points", "3"], ANALYZE_CSV),
    "analyze-json": (ANALYZE + ["--points", "2", "--format", "json"], ANALYZE_JSON),
    "analyze-touchstone": (ANALYZE + ["--points", "3", "--format", "touchstone"], ANALYZE_TOUCHSTONE),
    "sweep-csv": (SWEEP, SWEEP_CSV),
    "sweep-json": (SWEEP + ["--format", "json"], SWEEP_JSON),
    "sections-csv": (SECTIONS, SECTIONS_CSV),
    "sections-json": (SECTIONS + ["--format", "json"], SECTIONS_JSON),
    "synthesize-text": (["synthesize", "--spec", SPEC, "--out", "OUT"], SYNTHESIZE_TEXT),
    "synthesize-json": (["synthesize", "--spec", SPEC, "--format", "json"], SYNTHESIZE_JSON),
    "compare-text": (COMPARE, COMPARE_TEXT),
    "compare-json": (COMPARE + ["--format", "json"], COMPARE_JSON),
}


def masked(text: str) -> str:
    return NUMBER.sub("<n>", text)


@pytest.fixture
def files(tmp_path, monkeypatch):
    """Names in the case lines -> paths: the stock design, and a Touchstone
    export of its model for ``compare``. Runs in ``tmp_path``, so ``OUT``
    is written there."""
    monkeypatch.chdir(tmp_path)
    design = tmp_path / "stock.design"
    design.write_text(dumps_design(prototype_design()))
    s2p = tmp_path / "model.s2p"
    argv = ["analyze", "--design", str(design), "--points", "3", "--format", "touchstone"]
    assert main([*argv, "--out", str(s2p)]) == 0
    return {"DESIGN": str(design), "MODEL_S2P": str(s2p)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_layout(case, files, capsys):
    argv, expected = CASES[case]
    capsys.readouterr()
    code = main([files.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert masked(out) == expected


def test_analyze_out_touchstone(files, capsys, tmp_path):
    """With ``--out``, the table goes to the file and the band metrics and
    claim verdicts to stdout, without the ``#`` they carry in CSV."""
    capsys.readouterr()
    out_path = tmp_path / "response.s2p"
    argv = [files.get(arg, arg) for arg in ANALYZE]
    code = main([*argv, "--points", "3", "--format", "touchstone", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert masked(out) == (
        f"{METRIC_LINE}\n{METRIC_LINE}\n"
        "PASS  passband insertion loss up to <n> GHz: observed <n> dB (threshold <n> dB)\n"
        "PASS  stopband attenuation <n>-<n> GHz: observed <n> dB (threshold <n> dB)\n"
    )
    assert masked(out_path.read_text()) == ANALYZE_TOUCHSTONE


def test_analyze_out_touchstone_names_a_failed_claim(files, capsys, tmp_path):
    """``--claims strict12`` on the stock design: the 0-12 GHz insertion
    loss claim fails, its line says so, and the exit code is 1."""
    capsys.readouterr()
    out_path = tmp_path / "response.s2p"
    argv = ["analyze", "--design", files["DESIGN"], "--claims", "strict12"]
    code = main([*argv, "--format", "touchstone", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    claims = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [line.split(":")[0] for line in claims] == [
        "FAIL  passband insertion loss up to 12 GHz",
        "PASS  stopband attenuation 70-145 GHz",
        "PASS  passband ripple in the 4-8 GHz band",
    ]
