import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from herd import (
    FrequencyGrid,
    Provenance,
    SParamTable,
    dumps_design,
    dumps_design_spec,
    inband_transmission,
    loads_design,
    prototype_design,
    with_aperture,
    write_touchstone,
)
import herd
from herd import cli, tsio
from herd.cli import main
from herd.synthesis import DesignSpec
from herd.model import AIR, Material


@pytest.fixture
def proto_file(tmp_path, proto):
    path = tmp_path / "stock.design"
    path.write_text(dumps_design(proto, header="stock design"))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    spec = DesignSpec(
        z0=50.0,
        f_passband_top=10e9,
        passband_il_budget_db=0.15,
        f_stopband_start=25.3e9,
        stopband_min_attenuation_db=60.0,
        aperture_fill=Material(eps_r=2.2),
        coax_fill=AIR,
    )
    path = tmp_path / "targets.spec"
    path.write_text(dumps_design_spec(spec, header="headline targets"))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModes:
    def test_stock_report(self, capsys, proto_file):
        code, out, _ = run(capsys, ["modes", "--design", proto_file, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["z0_ohm"] == pytest.approx(49.83, abs=0.05)
        assert doc["single_mode_limit_hz"] == pytest.approx(18.2e9, abs=0.1e9)
        assert doc["corner_frequency_hz"] == pytest.approx(25.3e9, abs=0.05e9)
        assert {"m": 0, "n": 1, "cutoff_hz": doc["mode_chart"][0]["cutoff_hz"]} == doc["mode_chart"][0]

    def test_radius_solve_shortcut(self, capsys):
        code, out, _ = run(
            capsys, ["modes", "--z0", "50", "--single-mode", "10e9", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["r_inner_m"] == pytest.approx(2.89e-3, abs=0.01e-3)
        assert doc["single_mode_limit_hz"] == pytest.approx(10e9, rel=1e-9)

    def test_text_output(self, capsys, proto_file):
        code, out, _ = run(capsys, ["modes", "--design", proto_file])
        assert code == 0
        assert "z0_ohm = 49.82" in out
        assert "mode chart" in out

    def test_empty_design_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.design"
        empty.write_text("")
        code, _, err = run(capsys, ["modes", "--design", str(empty)])
        assert code == 2
        assert "a_m" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, ["modes"])
        assert code == 2

    @pytest.mark.parametrize("eps", ["0", "0.5"])
    def test_coax_eps_below_one_refused(self, capsys, eps):
        argv = ["modes", "--z0", "50", "--single-mode", "10e9", "--coax-eps", eps]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "coax_fill.eps_r" in err


class TestAnalyze:
    def test_claims_pass_on_stock_design(self, capsys, proto_file):
        band = ["--fstart", "1e8", "--fstop", "145e9", "--claims", "default"]
        for grid in (["--points", "1000"], ["--log", "--points", "300"]):
            code, out, _ = run(capsys, ["analyze", "--design", proto_file, *band, *grid])
            assert code == 0
            assert "PASS" in out and "FAIL" not in out

    def test_two_sections_fail_stopband_claim(self, capsys, tmp_path, proto):
        path = tmp_path / "two.design"
        path.write_text(dumps_design(replace(proto, sections=2)))
        code, out, _ = run(capsys, ["analyze", "--design", str(path), "--claims", "default"])
        assert code == 1
        assert "FAIL" in out

    def test_reversed_range_rejected(self, capsys, proto_file):
        code, _, err = run(
            capsys, ["analyze", "--design", proto_file, "--fstart", "2e9", "--fstop", "1e9"]
        )
        assert code == 2

    def test_json_document(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["analyze", "--design", proto_file, "--points", "50", "--format", "json",
             "--claims", "default"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "analyze"
        assert len(doc["response"]) == 50
        assert {"frequency_hz", "s21_db", "s11_db"} == set(doc["response"][0])
        assert doc["claims_passed"] is True
        assert doc["band_metrics"]

    def test_byte_identical_reruns(self, capsys, proto_file):
        argv = ["analyze", "--design", proto_file, "--points", "64", "--log"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_output_file_and_touchstone(self, capsys, proto_file, tmp_path):
        out_path = tmp_path / "model.s2p"
        code, _, _ = run(
            capsys,
            ["analyze", "--design", proto_file, "--points", "40", "--format", "touchstone",
             "--out", str(out_path)],
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("!")
        assert "# GHZ S DB R 50" in text

    def test_csv_columns(self, capsys, proto_file):
        code, out, _ = run(capsys, ["analyze", "--design", proto_file, "--points", "16"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "frequency_hz,s21_db,s11_db"
        assert len([l for l in lines if not l.startswith("#")]) == 17

        # the in-band curve: the loss rises strictly up to 12 GHz
        argv = ["--fstart", "0.5e9", "--fstop", "12e9", "--points", "200"]
        code, out, _ = run(capsys, ["analyze", "--design", proto_file, *argv])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        losses = [-float(row[1]) for row in rows]
        assert len(losses) == 200
        assert all(a < b for a, b in zip(losses, losses[1:]))


    def test_an_infinite_figure_is_na_on_every_text_line(self, capsys, proto_file):
        # A matched model reflects nothing, so each band's worst return loss
        # is -inf. (Its loss is finite; TestCompare checks an infinite one.)
        argv = ["analyze", "--design", proto_file, "--points", "50", "--claims", "default"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        bands = [line for line in out.splitlines() if line.startswith("# band")]
        assert len(bands) == 2 and all(line.endswith(" worst_rl=n/a dB") for line in bands)
        # the CSV rows keep -inf for s11_db; the lines under them do not
        assert not [line for line in out.splitlines() if line.startswith("#") and "inf" in line]
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert [row["worst_return_loss_db"] for row in json.loads(out)["band_metrics"]] == [None, None]

    @pytest.mark.parametrize("fmt", ["csv", "json", "touchstone"])
    def test_each_band_is_evaluated_once(self, capsys, monkeypatch, proto_file, fmt):
        # strict12 holds three bands; the metric rows and the claims share
        # one evaluation of each. Below 12 GHz the stopband has no points:
        # its metric row and its claim carry the same error.
        bands = []
        band_points = tsio.band_points

        def counting(f, band):
            bands.append(band)
            return band_points(f, band)

        # wherever herd looks the function up
        for module in (tsio, cli):
            if hasattr(module, "band_points"):
                monkeypatch.setattr(module, "band_points", counting)
        argv = ["analyze", "--design", proto_file, "--fstop", "12e9", "--points", "40",
                "--claims", "strict12", "--format", fmt]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert bands == [(0.0, 12e9), (70e9, 145e9), (4e9, 8e9)]
        if fmt == "json":
            doc = json.loads(out)
            error = "no grid points inside band [70000000000.0, 145000000000.0] Hz"
            assert doc["band_metrics"][1] == {"band_hz": [70e9, 145e9], "error": error}
            assert doc["claims"][1]["error"] == error
            assert [claim["passed"] for claim in doc["claims"]] == [False, False, True]


class TestSweep:
    def _rows(self, out):
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        return [line.split(",") for line in lines[1:]]

    def test_width_sweep_lowers_corner(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["sweep", "--design", proto_file, "--param", "a", "--from", "3e-3", "--to", "6e-3",
             "--steps", "7"],
        )
        assert code == 0
        corners = [float(r[1]) for r in self._rows(out)]
        assert all(a > b for a, b in zip(corners, corners[1:]))

    def test_height_sweep_keeps_corner(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["sweep", "--design", proto_file, "--param", "b", "--from", "3e-3", "--to", "8e-3",
             "--steps", "6"],
        )
        assert code == 0
        corners = {r[1] for r in self._rows(out)}
        assert len(corners) == 1

    def test_depth_sweep_monotone_loss(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["sweep", "--design", proto_file, "--param", "d", "--from", "3e-3", "--to", "7e-3",
             "--steps", "5"],
        )
        assert code == 0
        rows = self._rows(out)
        corners = {r[1] for r in rows}
        losses = [float(r[2]) for r in rows]
        assert len(corners) == 1
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_invalid_parameter_name(self, capsys, proto_file):
        code, _, _ = run(
            capsys,
            ["sweep", "--design", proto_file, "--param", "q", "--from", "1e-3", "--to", "2e-3",
             "--steps", "3"],
        )
        assert code == 2

    # The 12 mm width puts the corner at 8.42 GHz, below the 10 GHz --fref.
    _PAST_CORNER = ["--param", "a", "--from", "3e-3", "--to", "12e-3", "--steps", "5"]

    def test_rows_past_the_corner_are_na(self, capsys, proto, proto_file):
        code, out, _ = run(capsys, ["sweep", "--design", proto_file, *self._PAST_CORNER])
        assert code == 0
        rows = self._rows(out)
        assert len(rows) == 5
        for value, corner, loss in rows:
            variant = with_aperture(proto, width_a=float(value))
            if float(corner) > 10e9:
                expected = inband_transmission(variant, 10e9).insertion_loss_db
                assert loss == format(expected, ".12g")
            else:
                assert loss == "n/a"
        assert [r[2] == "n/a" for r in rows] == [False] * 4 + [True]

    def test_rows_past_the_corner_are_null_in_json(self, capsys, proto, proto_file):
        code, out, _ = run(
            capsys, ["sweep", "--design", proto_file, *self._PAST_CORNER, "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["insertion_loss_db"] is None for row in rows] == [False] * 4 + [True]
        for row in rows[:4]:
            variant = with_aperture(proto, width_a=row["value_m"])
            expected = inband_transmission(variant, 10e9).insertion_loss_db
            assert row["insertion_loss_db"] == expected
            assert row["corner_frequency_hz"] > 10e9

    def test_vanishing_depth_gives_a_finite_loss(self, capsys, proto_file):
        # a femtometre-deep aperture passes nearly the whole field, so its
        # 32 apertures transmit less than a float holds; the loss, a sum of
        # logs, is still a number (80-digit references 3789.08130034727 and
        # 3692.7517017349 dB)
        argv = ["sweep", "--design", proto_file, "--param", "d", "--from", "1e-15",
                "--to", "2e-15", "--steps", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [r[2] for r in self._rows(out)] == ["3789.08130035", "3692.75170173"]
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        losses = [row["insertion_loss_db"] for row in json.loads(out)["rows"]]
        assert losses == pytest.approx([3789.08130034727, 3692.7517017349], rel=1e-12)

    @pytest.mark.parametrize(
        "span", [["--from", "0", "--to", "12e-3"], ["--from", "nan", "--to", "12e-3"]]
    )
    def test_non_positive_or_nan_value_still_rejected(self, capsys, proto_file, span):
        code, _, err = run(
            capsys, ["sweep", "--design", proto_file, "--param", "a", *span, "--steps", "5"]
        )
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("fref", ["nan", "inf", "0", "-1e9"])
    def test_invalid_reference_frequency_rejected(self, capsys, proto_file, fref):
        code, _, err = run(
            capsys, ["sweep", "--design", proto_file, *self._PAST_CORNER, f"--fref={fref}"]
        )
        assert code == 2
        assert "frequency must be finite and > 0" in err


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_zero_loss_is_written_without_a_sign(self, capsys, proto_file, fmt):
        # a metre deep, the field power through a hole, exp(-1442), rounds
        # to nothing
        argv = ["sweep", "--design", proto_file, "--param", "d", "--from", "1", "--to", "2",
                "--steps", "2", "--format", fmt]
        code, out, _ = run(capsys, argv)
        assert code == 0
        if fmt == "csv":
            assert [row[2] for row in self._rows(out)] == ["0", "0"]
        else:
            assert '"insertion_loss_db": 0.0' in out and "-0" not in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_corners_near_the_float_limit(self, capsys, tmp_path, proto, fmt):
        # corners from 1e308 down to 5e307 Hz; the 1e-300 m hole loses 0.26 dB at
        # 10 GHz, and wider holes lose more
        path = tmp_path / "tiny.design"
        path.write_text(dumps_design(with_aperture(proto, width_a=1e-300, depth_d=1e-300)))
        argv = ["sweep", "--design", str(path), "--param", "a", "--from", "1e-300", "--to", "2e-300",
                "--steps", "3", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        if fmt == "csv":
            losses = [float(row[2]) for row in self._rows(out)]
        else:
            losses = [row["insertion_loss_db"] for row in json.loads(out)["rows"]]
        assert losses[0] == pytest.approx(0.25977, abs=1e-5)
        assert 0.0 < losses[0] < losses[1] < losses[2]


class TestSections:
    def test_stock_ladder(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["sections", "--design", proto_file, "--freqs", "70e9", "--max-sections", "8"],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        values = [float(r[1]) for r in rows]
        assert values == pytest.approx([15 * n for n in range(1, 9)], abs=0.1)

    def test_monotone_columns(self, capsys, proto_file):
        code, out, _ = run(
            capsys,
            ["sections", "--design", proto_file, "--freqs", "40e9,60e9,130e9", "--max-sections", "5"],
        )
        assert code == 0
        header, *lines = out.splitlines()
        assert header == (
            "sections,att_db_40000000000hz,att_db_60000000000hz,att_db_130000000000hz"
        )
        rows = [line.split(",") for line in lines]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
        for column in (1, 2, 3):
            values = [float(r[column]) for r in rows]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_high_counts_stay_linear(self, capsys, proto_file):
        argv = ["sections", "--design", proto_file, "--freqs", "70e9", "--max-sections", "600"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        cells = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert len(cells) == 600
        assert all(math.isfinite(float(cell)) for cell in cells)

        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        first = rows[0]["attenuation_db"][0]
        for row in rows:
            (att,) = row["attenuation_db"]
            assert math.isfinite(att)
            assert att == pytest.approx(row["sections"] * first, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_zero_attenuation_is_written_without_a_sign(self, capsys, tmp_path, proto, fmt):
        # no field passes a hole half a metre deep, and a drain of 1e-300
        # at a blend weight of 1e-38 rounds to nothing
        path = tmp_path / "deep.design"
        path.write_text(dumps_design(replace(with_aperture(proto, depth_d=0.5), stopband_kappa=1e-300)))
        argv = ["sections", "--design", str(path), "--freqs", "1e9", "--max-sections", "2",
                "--format", fmt]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "-0" not in out
        if fmt == "csv":
            assert out.splitlines()[1:] == ["1,0", "2,0"]

    def test_unparsable_frequency(self, capsys, proto_file):
        code, _, err = run(
            capsys, ["sections", "--design", proto_file, "--freqs", "40e9,sixty"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--freqs", ","], "need at least one frequency"),
            (["--freqs", "40e9", "--max-sections", "0"], "max_sections must be >= 1 (got 0)"),
        ],
    )
    def test_no_frequency_or_no_section_is_refused(self, capsys, proto_file, args, message):
        code, out, err = run(capsys, ["sections", "--design", proto_file, *args])
        assert (code, out) == (2, "")
        assert err == f"herd: input error: {message}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "freqs, repeat",
        [("1e9,1e9", "1000000000.0"), ("1e9,1.0000000000001e9", "1000000000.0001"),
         ("5e9,1e9,2e9,1e9", "1000000000.0")],
    )
    def test_frequencies_that_share_a_column_name_are_refused(self, capsys, proto_file, freqs, repeat, fmt):
        argv = ["sections", "--design", proto_file, "--freqs", freqs, "--max-sections", "2"]
        code, out, err = run(capsys, [*argv, "--format", fmt])
        assert (code, out) == (2, "")
        assert err == (
            f"herd: input error: frequencies 1000000000.0 and {repeat} "
            "repeat the column att_db_1000000000hz\n"
        )

    def test_frequencies_that_differ_in_12_digits_are_kept(self, capsys, proto_file):
        argv = ["sections", "--design", proto_file, "--freqs", "1e9,1.00000000001e9", "--max-sections", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[0] == "sections,att_db_1000000000hz,att_db_1000000000.01hz"


class TestSynthesize:
    def test_writes_reloadable_design(self, capsys, spec_file, tmp_path):
        out_path = tmp_path / "made.design"
        code, out, _ = run(
            capsys,
            ["synthesize", "--spec", spec_file, "--out", str(out_path), "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        design = loads_design(out_path.read_text())
        assert design.aperture.width_a == doc["design"]["a_m"]
        assert design.sections == doc["design"]["sections"] == 4
        assert doc["design"]["a_m"] == pytest.approx(4.0e-3, abs=0.1e-3)
        assert doc["margin_passband_db"] >= 0.0
        assert doc["margin_stopband_db"] >= 0.0
        # reloading the written file reproduces the design exactly
        assert dumps_design(design) == dumps_design(loads_design(dumps_design(design)))

    def test_infeasible_spec(self, capsys, tmp_path, spec_file):
        bad = tmp_path / "bad.spec"
        bad.write_text(open(spec_file).read().replace("25300000000.0", "5000000000.0"))
        code, _, err = run(capsys, ["synthesize", "--spec", str(bad)])
        assert code == 3
        assert "infeasible" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("z0_ohm = 50\nwhat = 1\n")
        code, _, _ = run(capsys, ["synthesize", "--spec", str(bad)])
        assert code == 2

    def test_a_target_past_the_table_range_has_a_stopband_margin(self, capsys, tmp_path, spec_file):
        # 42505397 sections, whose cascaded s21 underflowed: the margin read n/a
        huge = tmp_path / "huge_target.spec"
        huge.write_text(open(spec_file).read().replace("= 60.0", "= 637584653.0"))
        code, out, err = run(capsys, ["synthesize", "--spec", str(huge)])
        assert (code, err) == (0, "")
        assert "sections = 42505397\n" in out
        assert "margin_stopband_db = 12.4474509954\n" in out
        code, out, err = run(capsys, ["synthesize", "--spec", str(huge), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["margin_stopband_db"] == 12.447450995445251

    def test_a_count_is_written_as_an_integer(self, capsys, tmp_path, spec_file):
        # 9999941804632 sections: %.12g would write 9.99994180463e+12
        huge = tmp_path / "huge_target.spec"
        huge.write_text(open(spec_file).read().replace("= 60.0", "= 1.5e14"))
        made = tmp_path / "made.design"
        code, out, err = run(capsys, ["synthesize", "--spec", str(huge), "--out", str(made)])
        assert (code, err) == (0, "")
        assert "\nsections = 9999941804632\n" in out
        assert loads_design(made.read_text()).sections == 9999941804632

    def test_a_target_past_2_53_sections_is_infeasible(self, capsys, tmp_path, spec_file):
        # 1e300 dB takes 6.7e298 sections of 15 dB: no design holds that many
        huge = tmp_path / "huge_target.spec"
        huge.write_text(open(spec_file).read().replace("= 60.0", "= 1e300"))
        for fmt in ("text", "json"):
            code, out, err = run(capsys, ["synthesize", "--spec", str(huge), "--format", fmt])
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and err.startswith("herd: infeasible: ")
            assert "stopband_min_attenuation_db = 1e+300 dB takes 6.66663e+298 sections" in err


class TestCompare:
    def test_model_export_matches_itself(self, capsys, proto_file, tmp_path):
        s2p = tmp_path / "meas.s2p"
        run(
            capsys,
            ["analyze", "--design", proto_file, "--points", "400", "--format", "touchstone",
             "--out", str(s2p)],
        )
        code, out, _ = run(
            capsys,
            ["compare", str(s2p), "--design", proto_file, "--claims", "default",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["claims_passed"] is True
        for row in doc["deviations"]:
            assert row["max_abs_il_delta_db"] == pytest.approx(0.0, abs=1e-9)

    def test_weak_stopband_fails(self, capsys, proto_file, tmp_path):
        freqs = tuple(float(f) for f in (1e9, 5e9, 75e9, 100e9, 145e9))
        mags = (0.999, 0.999, 10 ** (-55 / 20), 10 ** (-55 / 20), 10 ** (-55 / 20))
        s21 = np.array(mags, dtype=complex)
        s11 = np.full(len(mags), 0.01 + 0j)
        table = SParamTable(
            FrequencyGrid(freqs), Provenance.MEASURED, s11=s11, s21=s21, s12=s21, s22=s11
        )
        s2p = tmp_path / "weak.s2p"
        s2p.write_text(write_touchstone(table, "DB", "GHZ"))
        code, out, _ = run(capsys, ["compare", str(s2p), "--design", proto_file])
        assert code == 1
        assert "FAIL" in out

    def test_magonly_note(self, capsys, proto_file, tmp_path):
        s21 = np.array([0.99, 1e-4], dtype=complex)
        zeros = np.zeros(2, dtype=complex)
        table = SParamTable(
            FrequencyGrid((1e9, 80e9)), Provenance.MEASURED, mag_only=True,
            s11=zeros, s21=s21, s12=s21, s22=zeros,
        )
        s2p = tmp_path / "mag.s2p"
        s2p.write_text(write_touchstone(table, "MA", "GHZ"))
        code, out, _ = run(capsys, ["compare", str(s2p), "--design", proto_file])
        assert "magnitude-only" in out

    def test_missing_file(self, capsys, proto_file, tmp_path):
        code, _, _ = run(capsys, ["compare", str(tmp_path / "nope.s2p"), "--design", proto_file])
        assert code == 2

    def test_no_measured_transmission_is_an_na_figure(self, capsys, tmp_path, proto_file):
        # The measured S21 is 0 at 80 GHz: its loss, the stopband claim's
        # observed figure and its difference from the model's finite loss
        # are infinite there, n/a in text and null in JSON.
        s21 = np.array([0.99, 0.0], dtype=complex)
        zeros = np.zeros(2, dtype=complex)
        table = SParamTable(
            FrequencyGrid((1e9, 80e9)), Provenance.MEASURED, s11=zeros, s21=s21, s12=s21, s22=zeros
        )
        s2p = tmp_path / "dead.s2p"
        s2p.write_text(write_touchstone(table, "RI", "GHZ"))
        argv = ["compare", str(s2p), "--design", proto_file]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert "PASS  stopband attenuation 70-145 GHz: observed n/a dB (threshold 60 dB)\n" in out
        assert "band [70000000000, 145000000000] Hz: max |IL_measured - IL_model| = n/a dB" in out
        assert "inf" not in out
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["claims"][1]["observed_db"] is None
        assert doc["deviations"][1] == {"band_hz": [70e9, 145e9], "max_abs_il_delta_db": None}


def _measured(tmp_path, freqs, s21_db, s11=0.0, mag_only=False):
    """A measured .s2p of a symmetric two-port with real entries: S21 at the
    given dB per frequency, S11 = S22 = ``s11``."""
    s21 = 10.0 ** (np.asarray(s21_db, dtype=float) / 20.0) + 0j
    s11 = np.full(len(freqs), s11, dtype=complex)
    table = SParamTable(
        FrequencyGrid(freqs), Provenance.MEASURED, mag_only=mag_only,
        s11=s11, s21=s21, s12=s21, s22=s11,
    )
    path = tmp_path / "measured.s2p"
    path.write_text(write_touchstone(table, "MA" if mag_only else "DB", "GHZ"))
    return str(path)


class TestCompareGain:
    """A measured point whose S has more than herd.cli.GAIN_TOL_DB dB of gain
    (in its largest singular value) fails every claim whose band holds it."""

    def test_gain_everywhere_fails_both_claims(self, capsys, proto_file, tmp_path):
        freqs = np.linspace(1e9, 145e9, 50)
        s2p = _measured(tmp_path, freqs, np.full(50, 3.0))
        code, out, _ = run(capsys, ["compare", s2p, "--design", proto_file])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == (
            "FAIL  passband insertion loss up to 10 GHz: error: gain at 1000000000 Hz"
        )
        assert lines[1].startswith("FAIL  stopband attenuation 70-145 GHz: error: gain at 7")
        assert lines[-1] == (
            "gain: 50 points where S has more than 0.05 dB of gain, the first at 1000000000 Hz"
        )
        code, out, _ = run(capsys, ["compare", s2p, "--design", proto_file, "--format", "json"])
        doc = json.loads(out)
        assert code == 1 and doc["claims_passed"] is False
        assert (doc["gain_points"], doc["first_gain_hz"]) == (50, 1e9)
        assert [claim["passed"] for claim in doc["claims"]] == [False, False]
        assert doc["claims"][0]["error"] == "gain at 1000000000 Hz"

    def test_gain_only_in_the_stopband(self, capsys, proto_file, tmp_path):
        freqs = (1e9, 5e9, 80e9, 100e9, 120e9)
        s2p = _measured(tmp_path, freqs, (-0.05, -0.05, -70.0, 1.0, -70.0))
        code, out, _ = run(capsys, ["compare", s2p, "--design", proto_file, "--format", "json"])
        doc = json.loads(out)
        assert code == 1
        assert [claim["passed"] for claim in doc["claims"]] == [True, False]
        assert doc["claims"][1]["error"] == "gain at 100000000000 Hz"
        assert (doc["gain_points"], doc["first_gain_hz"]) == (1, 100e9)

    @pytest.mark.parametrize("excess_db", [0.0, 0.01, 0.049])
    def test_noise_within_tolerance_passes(self, capsys, proto_file, tmp_path, excess_db):
        s2p = _measured(tmp_path, (1e9, 5e9, 80e9), (excess_db, -0.1, -70.0))
        code, out, _ = run(capsys, ["compare", s2p, "--design", proto_file])
        assert code == 0
        assert "gain" not in out

    def test_magnitude_only_matched_loss_is_not_gain(self, capsys, proto_file, tmp_path):
        # |S11| = 0.1 and |S21| = 0.99 with the phases unknown: the columns
        # carry 0.9901 of the power, which a passive filter can do.
        s2p = _measured(tmp_path, (1e9, 5e9, 80e9), (20 * math.log10(0.99), -0.1, -70.0),
                        s11=0.1, mag_only=True)
        code, out, _ = run(capsys, ["compare", s2p, "--design", proto_file, "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["gain_points"] == 0 and doc["mag_only"] is True


class TestExitCodes:
    def test_all_four_codes(self, capsys, proto_file, spec_file, tmp_path):
        # 0: success
        assert run(capsys, ["modes", "--design", proto_file])[0] == 0
        # 1: compliance failure
        two = tmp_path / "two.design"
        two.write_text(dumps_design(replace(prototype_design(), sections=2)))
        assert run(capsys, ["analyze", "--design", str(two), "--claims", "default"])[0] == 1
        # 2: parse error
        empty = tmp_path / "none.design"
        empty.write_text("")
        assert run(capsys, ["analyze", "--design", str(empty)])[0] == 2
        # 3: infeasible synthesis
        bad = tmp_path / "bad.spec"
        bad.write_text(open(spec_file).read().replace("25300000000.0", "1000000000.0"))
        assert run(capsys, ["synthesize", "--spec", str(bad)])[0] == 3


class TestClosedStdout:
    """A reader that stops early closes stdout: no error message, exit 141."""

    class _Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

    def test_main_returns_the_closed_pipe_code(self, capsys, monkeypatch, proto_file):
        monkeypatch.setattr(sys, "stdout", self._Closed())
        code = main(["modes", "--design", proto_file, "--fmax", "3e12", "--format", "json"])
        assert code == cli.EXIT_CLOSED_PIPE == 141
        assert capsys.readouterr().err == ""

    def _herd(self, *argv):
        # stdout buffered, as a shell gives it, so text can wait in the
        # buffer for the interpreter's flush at exit
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(herd.__file__).parents[1])
        return [sys.executable, "-m", "herd", *argv], env

    def test_a_reader_that_reads_one_line(self, proto_file):
        # 200000 rows, far more than a pipe holds, so herd is still writing
        # when the reader closes its end
        argv, env = self._herd("analyze", "--design", proto_file, "--points", "200000")
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"frequency_hz,s21_db,s11_db\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_a_reader_that_has_gone_before_a_short_output(self, proto_file):
        # the whole report fits the buffer, so the pipe refuses it only when
        # herd flushes at the end
        argv, env = self._herd("modes", "--design", proto_file)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")


class TestOneParser:
    """``main`` builds its parser on the first call and reuses it."""

    def _lines(self, proto_file, spec_file, tmp_path):
        out = str(tmp_path / "out.txt")
        return [
            ["analyze", "--design", proto_file, "--points", "4097", "--claims", "default"],
            ["analyze", "--design", proto_file, "--points", "50", "--log", "--format", "json"],
            ["analyze", "--design", proto_file, "--points", "11", "--format", "touchstone", "--out", out],
            ["analyze", "--design", proto_file, "--format", "xml"],
            ["sweep", "--design", proto_file, "--param", "a", "--from", "3e-3", "--to", "6e-3",
             "--steps", "4", "--format", "json"],
            ["analyze", "--points", "11"],
            ["sections", "--design", proto_file, "--freqs", "40e9,130e9", "--max-sections", "3"],
            ["modes", "--design", proto_file, "--format", "csv"],
            ["modes", "--z0", "50", "--single-mode", "10e9"],
            ["synthesize", "--spec", spec_file, "--format", "json"],
            ["analyze", "--design", proto_file, "--points", "11", "--format", "csv", "--out", out],
        ]

    def _run(self, capsys, argv):
        code, stdout, stderr = run(capsys, argv)
        written = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path) as stream:
                written = stream.read()
        return code, stdout, stderr, written

    def test_one_parser_writes_the_bytes_of_fresh_ones(
        self, capsys, monkeypatch, proto_file, spec_file, tmp_path
    ):
        lines = self._lines(proto_file, spec_file, tmp_path)
        fresh = []
        for argv in lines:
            cli._parser.cache_clear()
            fresh.append(self._run(capsys, argv))

        built = []
        build_parser = cli.build_parser

        def counting():
            built.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        assert [self._run(capsys, argv) for argv in lines] == fresh
        assert len(built) == 1

    def test_argparse_errors_leave_the_parser_usable(self, capsys, proto_file):
        cli._parser.cache_clear()
        valid = ["analyze", "--design", proto_file, "--points", "11", "--format", "json"]
        first = run(capsys, valid)
        assert first[0] == 0
        for bad, message in (
            ([*valid[:-1], "xml"], "invalid choice: 'xml'"),
            (["analyze", "--points", "11"], "the following arguments are required: --design"),
        ):
            code, out, err = run(capsys, bad)
            assert code == 2 and out == ""
            assert err.startswith("usage: herd analyze") and message in err
        assert run(capsys, valid) == first
