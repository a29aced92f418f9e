"""perfbench's workload runners against the herd in ``src/``.

The benchmark's worker reads herd's results by attribute (``table.entries``,
``grid.points``, ``.insertion_loss_db``, ``.cutoff_hz``, ``report.results``,
...), and its oracle checks what it reads. Here one generated cycle of each
workload runs a few of its jobs through the worker's runner and the oracle's
check, so that a name the benchmark reads fails in this suite rather than
only in a benchmark run. Nothing under ``perfbench/`` is changed or timed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# the worker imports its siblings as top-level modules
BENCH_MODULES = ("gen", "hostspeed", "oracle", "tracing", "worker")


@pytest.fixture(scope="module")
def bench():
    """perfbench's generator, oracle and worker, imported as the worker
    imports them, and removed again afterwards."""
    clashes = [name for name in BENCH_MODULES if name in sys.modules]
    assert not clashes, f"modules named like perfbench's already imported: {clashes}"
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import oracle
        import worker

        yield gen, oracle, worker
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.fixture(scope="module")
def cycles(bench, tmp_path_factory):
    """One generated cycle per workload, made on first use: (workdir, manifest)."""
    gen = bench[0]
    made = {}

    def cycle(workload):
        if workload not in made:
            workdir = tmp_path_factory.mktemp(workload)
            made[workload] = workdir, gen.generate(workload, 1, workdir)
        return made[workload]

    return cycle


def _analyze_jobs(jobs):
    """The smallest job of each output format."""
    return [min((job for job in jobs if job["format"] == fmt), key=lambda job: job["points"])
            for fmt in ("csv", "json", "touchstone")]


def _measured_jobs(jobs):
    """One malformed file, the smallest valid file of each format, and the
    smallest magnitude-only file (which may be one of those)."""
    valid = [job for job in jobs if not job["malformed"]]
    picked = [next(job for job in jobs if job["malformed"])]
    picked += [min((job for job in valid if job["format"] == fmt), key=lambda job: job["rows"])
               for fmt in ("RI", "MA", "DB")]
    picked.append(min((job for job in valid if job["mag_only"]), key=lambda job: job["rows"]))
    return list({job["key"]: job for job in picked}.values())


def _synth_jobs(jobs):
    """One infeasible spec and the first three feasible ones."""
    return [next(job for job in jobs if job["infeasible"])] + [job for job in jobs if not job["infeasible"]][:3]


PICKS = {"analyze_dense": _analyze_jobs, "measured_qa": _measured_jobs, "synth_explore": _synth_jobs}


@pytest.mark.parametrize("workload", sorted(PICKS))
def test_runner_output_passes_the_oracle(bench, cycles, workload):
    _, oracle, worker = bench
    workdir, manifest = cycles(workload)
    jobs = manifest["jobs"]
    arrays_path = workdir / "expected.npz"
    arrays = np.load(arrays_path) if arrays_path.exists() else None
    runner = worker.RUNNERS[workload](worker.import_herd(ROOT / "src"), jobs)
    for job in PICKS[workload](jobs):
        points, outcome = runner.run(job, runner.load(job))
        assert points >= 0
        assert oracle.CHECKS[workload](job, runner.extract(outcome), arrays) == [], job
