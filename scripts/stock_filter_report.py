#!/usr/bin/env python3
"""Full report on the stock design: full-band response, in-band loss curve
against mismatch references, and the headline claim check.

Writes plot-ready CSVs plus a Touchstone export into --outdir.
"""

import argparse
import sys
from pathlib import Path

try:
    import herd
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import herd  # noqa: F401

from herd import (
    FrequencyGrid,
    check_claims,
    filter_response,
    inband_loss_curve,
    insertion_loss_db,
    mismatch_loss_db,
    prototype_design,
    write_touchstone,
)
from herd.cli import CLAIM_PROFILES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    parser.add_argument("--points", type=int, default=2000)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    design = prototype_design()

    # full band, log spacing
    grid = FrequencyGrid.logarithmic(0.1e9, 145e9, args.points)
    table = filter_response(design, grid)
    with open(outdir / "full_band_response.csv", "w") as fh:
        fh.write("frequency_hz,s21_db\n")
        for f, s21_db in zip(table.f.tolist(), (-insertion_loss_db(table.s21)).tolist()):
            fh.write(f"{f:.12g},{s21_db:.12g}\n")
    (outdir / "full_band_response.s2p").write_text(write_touchstone(table, "DB", "GHZ"))

    # in-band leakage curve vs mismatch references
    inband = FrequencyGrid.linear(0.5e9, 12e9, 200)
    curve = inband_loss_curve(design, inband)
    ref20 = mismatch_loss_db(-20.0)
    ref23 = mismatch_loss_db(-23.0)
    with open(outdir / "inband_loss.csv", "w") as fh:
        fh.write("frequency_hz,leakage_il_db,mismatch_il_db_20,mismatch_il_db_23\n")
        for point in curve:
            fh.write(
                f"{point.frequency:.12g},{point.insertion_loss_db:.12g},"
                f"{ref20:.12g},{ref23:.12g}\n"
            )

    report = check_claims(table, CLAIM_PROFILES["default"])
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.description}: observed {result.observed_db:.4f} dB")
    print(f"wrote {outdir}/full_band_response.csv, inband_loss.csv, full_band_response.s2p")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
