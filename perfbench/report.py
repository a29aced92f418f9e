"""Print every end-to-end metric, by name and unit, for each workload.

    python3 perfbench/report.py                        # one run per workload
    python3 perfbench/report.py --seeds 10             # ten seeds, with spreads
    python3 perfbench/report.py --seeds 10 --sets 2 --trace 3 --write-baseline

Each run is ``run.py`` in its own process. With several seeds the table adds
the quartiles of each metric and its spread, the interquartile distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
``--sets 2`` runs the whole set twice and checks that the two agree: every
spread within its bound, and the last set's medians not worse than the
first's by more than the bound.
``--trace N`` adds a traced run for each of the first N seeds and prints
per-layer medians.
``--write-baseline`` stores the medians, quartiles, parameter ranges and
machine description in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: bool, src: Path | None = None) -> dict:
    """One run.py invocation; returns the result object plus its ``detail``."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if src is not None:
        argv += ["--src", str(src)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run.py {workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), {})
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / abs(first) * (1.0 if better == "lower" else -1.0)


def summarize(runs: list[dict], bounds: dict) -> dict:
    metrics = {}
    for name, meta in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        metrics[name] = {"unit": meta["unit"], "median": q2, "q1": q1, "q3": q3, "spread": spread(values)}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1, help="repeat the whole set of runs, to see that sets agree")
    parser.add_argument("--trace", type=int, default=0, metavar="N", help="traced runs for the first N seeds")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    config = bench_config()
    seconds = config["run_seconds"]
    bounds = {m["name"]: m for m in config["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    baseline = {"run_seconds": seconds, "seeds": seeds, "sets": args.sets, "machine": machine(),
                "ranges": gen.RANGES, "workloads": {}}
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    layers = {w: [] for w in workloads}
    # Sets run one after the other, each over every workload, as a later
    # comparison of two sets of runs would.
    for number in range(args.sets):
        for workload in workloads:
            for seed in seeds:
                result = run_once(workload, seed, seconds, trace=False)
                runs[workload][number].append(result)
                print(f"set {number + 1} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} " +
                      " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
                if number == 0 and len(layers[workload]) < args.trace:
                    layers[workload].append(run_once(workload, seed, seconds, trace=True))

    steady = agree = True
    for workload in workloads:
        every = [r for one_set in runs[workload] for r in one_set]
        summary = {
            "fail_rate": sum(r["failed"] for r in every) / sum(r["attempted"] for r in every),
            "job_tail_percentile": statistics.median(r["detail"]["job_tail_percentile"] for r in every),
            "job_samples": statistics.median(r["detail"]["job_samples"] for r in every),
            "sets": [summarize(one_set, bounds) for one_set in runs[workload]],
        }
        print(f"\n{workload}: fail_rate = {summary['fail_rate']:.4g} "
              f"({sum(r['failed'] for r in every)}/{sum(r['attempted'] for r in every)} jobs); "
              f"job_tail_ms is p{summary['job_tail_percentile']:g} of ~{summary['job_samples']:g} jobs")
        print(f"  {'set':<4}{'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for number, metrics in enumerate(summary["sets"]):
            for name, m in metrics.items():
                bound = bounds[name]["bound"]
                steady &= m["spread"] <= bound / 3
                agree &= m["spread"] <= bound
                print(f"  {number + 1:<4}{name:<16}{m['unit']:<7}{m['median']:>12.5g}{m['q1']:>12.5g}"
                      f"{m['q3']:>12.5g}{m['spread']:>9.3f}{bound:>7}")
        if args.sets > 1:
            first, last = summary["sets"][0], summary["sets"][-1]
            summary["worse_share_last_set"] = {
                name: worse_share(first[name]["median"], last[name]["median"], bounds[name]["better"])
                for name in bounds
            }
            print(f"  median of set {args.sets} worse than set 1 by: " +
                  " ".join(f"{name}={share:+.3f}" for name, share in summary["worse_share_last_set"].items()))
            agree &= all(share <= bounds[name]["bound"] for name, share in summary["worse_share_last_set"].items())
        if layers[workload]:
            summary["per_layer"] = {}
            print(f"  per-layer medians over {len(layers[workload])} traced runs:")
            for meta in config["per_layer"]:
                values = [r["metrics"][meta["name"]]["value"] for r in layers[workload]]
                summary["per_layer"][meta["name"]] = statistics.median(values)
                if any(values):
                    print(f"    {meta['name']:<52}{statistics.median(values):>12.5g} {meta['unit']}")
        baseline["workloads"][workload] = summary
        print(flush=True)

    if args.seeds > 1:
        print("every spread within its bound" if agree else "some spread or set-to-set change exceeds its bound")
        print("every spread below a third of its bound" if steady else "some spread exceeds a third of its bound")
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
