"""Each script under ``scripts/`` runs end to end into a temporary directory
and writes the CSVs it promises, with their headers and row counts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, outdir, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--outdir", str(outdir), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def _csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("scripts")
    runs = {
        "aperture_coupling_sweep.py": _run("aperture_coupling_sweep.py", outdir, "--steps", "12"),
        "section_scaling.py": _run("section_scaling.py", outdir, "--max-sections", "6"),
        "stock_filter_report.py": _run("stock_filter_report.py", outdir, "--points", "300"),
    }
    return outdir, runs


@pytest.mark.parametrize(
    "script", ["aperture_coupling_sweep.py", "section_scaling.py", "stock_filter_report.py"]
)
def test_exits_zero(outputs, script):
    done = outputs[1][script]
    assert done.returncode == 0, done.stderr
    assert "wrote" in done.stdout


def test_coupling_sweep_csvs(outputs):
    outdir = outputs[0]
    for name in ("width", "height"):
        header, rows = _csv(outdir / f"coupling_sweep_{name}.csv")
        assert header == ["value_m", "corner_frequency_hz", "insertion_loss_db"]
        assert len(rows) == 12
    _, heights = _csv(outdir / "coupling_sweep_height.csv")
    assert len({row[1] for row in heights}) == 1


def test_section_scaling_csv(outputs):
    header, rows = _csv(outputs[0] / "attenuation_vs_sections.csv")
    assert header == ["sections", "att_db_40000000000hz", "att_db_60000000000hz", "att_db_130000000000hz"]
    assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]


def test_stock_filter_report_outputs(outputs):
    outdir = outputs[0]
    header, rows = _csv(outdir / "full_band_response.csv")
    assert header == ["frequency_hz", "s21_db"]
    assert len(rows) == 300
    header, rows = _csv(outdir / "inband_loss.csv")
    assert header == ["frequency_hz", "leakage_il_db", "mismatch_il_db_20", "mismatch_il_db_23"]
    assert len(rows) == 200
    losses = [float(row[1]) for row in rows]
    assert all(a < b for a, b in zip(losses, losses[1:]))
    s2p = (outdir / "full_band_response.s2p").read_text().splitlines()
    assert sum(1 for line in s2p if line and line[0] not in "!#") == 300
    assert "PASS" in outputs[1]["stock_filter_report.py"].stdout


def test_coupling_sweep_past_the_corner(tmp_path):
    # from about 5.2 mm of width the corner lies below 20 GHz
    done = _run("aperture_coupling_sweep.py", tmp_path, "--steps", "12", "--fref", "20e9")
    assert done.returncode == 0, done.stderr
    _, widths = _csv(tmp_path / "coupling_sweep_width.csv")
    _, heights = _csv(tmp_path / "coupling_sweep_height.csv")
    assert len(widths) == len(heights) == 12
    past = [float(row[1]) <= 20e9 for row in widths]
    assert [row[2] == "n/a" for row in widths] == past
    assert 0 < sum(past) < 12
    assert all(float(row[2]) > 0.0 for row in heights)
