"""Compare a parent commit with a change, on the same benchmark code.

    git archive <parent> | tar -x -C ../parent
    python3 perfbench/compare.py --parent-src ../parent/src

Runs ``--pairs`` (at least 10) parent/change pairs per workload, alternating
which side runs first, with one fresh seed per pair. Both sides run this
checkout's ``run.py``; only the herd sources differ. For each end-to-end
metric and workload it reports:

- ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither), its median is better, and the medians differ by more than the
  parent's interquartile distance. Void if the change fails more jobs.
- ``unresolved``: the parent's own spread (IQR over median) is wider than
  the metric's bound, unless every change run beats every parent run.
- ``regressed``: the change's median is worse than the parent's by more than
  the bound in ``BENCHMARK.json``.
- ``no regression``: none of the above.

``--trace`` adds a traced run per side and pair and prints per-layer medians.
The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from run import WORKLOADS
from report import ROOT, bench_config, quartiles, run_once

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float, more_failures: bool) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    iqr = q3 - q1
    worse_share = -sign * (med_c - med_p) / abs(med_p)
    spread = iqr / abs(med_p)
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= WIN_SHARE * len(parent) and sign * (med_c - med_p) > iqr and not more_failures:
        status = "improved"
    elif spread > bound and not every_better:
        status = "unresolved"
    elif worse_share > bound:
        status = "regressed"
    else:
        status = "no regression"
    return {"status": status, "parent_median": med_p, "change_median": med_c, "wins": wins,
            "pairs": len(parent), "worse_share": worse_share, "parent_spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent-src", type=Path, required=True, help="src/ directory of the parent checkout")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1001, help="use seeds the change was not tuned on")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs")

    config = bench_config()
    seconds = config["run_seconds"]
    sides = {"parent": args.parent_src.resolve(), "change": (ROOT / "src").resolve()}
    regressed = False
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        traced = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(workload, seed, seconds, False, sides[side]))
                if args.trace:
                    traced[side].append(run_once(workload, seed, seconds, True, sides[side]))
            print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} done", flush=True)

        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        print(f"\n{workload}: failed jobs parent={failed['parent']} change={failed['change']}")
        print(f"  {'metric':<14}{'unit':<6}{'parent':>12}{'change':>12}{'worse':>8}{'spread':>8}{'wins':>6}  status")
        for meta in config["end_to_end"]:
            name = meta["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            v = verdict(values["parent"], values["change"], meta["better"], meta["bound"],
                        failed["change"] > failed["parent"])
            regressed |= v["status"] == "regressed"
            print(f"  {name:<14}{meta['unit']:<6}{v['parent_median']:>12.5g}{v['change_median']:>12.5g}"
                  f"{v['worse_share']:>8.3f}{v['parent_spread']:>8.3f}{v['wins']:>4}/{v['pairs']}  {v['status']}")
        if args.trace:
            for meta in config["per_layer"]:
                medians = {side: statistics.median(r["metrics"][meta["name"]]["value"] for r in traced[side])
                           for side in traced}
                if medians["parent"] or medians["change"]:
                    print(f"    {meta['name']:<52}{medians['parent']:>12.5g}{medians['change']:>12.5g} {meta['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
