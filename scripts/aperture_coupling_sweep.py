#!/usr/bin/env python3
"""Corner frequency and in-band loss while sweeping aperture width and height.

The width sweep moves the stopband onset; the height sweep leaves it
untouched, confirming the dominant coupled mode lives on the width axis.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

try:
    import herd
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import herd  # noqa: F401

from herd import corner_frequency, inband_transmission, prototype_design, with_aperture


def sweep(design, field, values, fref):
    """(value, corner, loss) rows; the loss is None where the corner lies at
    or below a finite ``fref`` or the loss is infinite, as in ``herd sweep``."""
    rows = []
    for value in values:
        variant = with_aperture(design, **{field: float(value)})
        corner = corner_frequency(variant)
        loss = None
        if not (math.isfinite(fref) and fref >= corner):
            loss = inband_transmission(variant, fref).insertion_loss_db
            loss = loss if math.isfinite(loss) else None
        rows.append((float(value), corner, loss))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--fref", type=float, default=10e9)
    parser.add_argument("--steps", type=int, default=40)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    design = prototype_design()

    for field, name, lo, hi in (
        ("width_a", "width", 3e-3, 6e-3),
        ("height_b", "height", 3e-3, 8e-3),
    ):
        rows = sweep(design, field, np.linspace(lo, hi, args.steps), args.fref)
        path = outdir / f"coupling_sweep_{name}.csv"
        with open(path, "w") as fh:
            fh.write("value_m,corner_frequency_hz,insertion_loss_db\n")
            for value, corner, loss in rows:
                loss_text = "n/a" if loss is None else f"{loss:.12g}"
                fh.write(f"{value:.12g},{corner:.12g},{loss_text}\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
