"""Workload process: one client on one thread, in a closed loop.

    python3 perfbench/worker.py --workdir DIR --src SRC --seconds S --trace 0|1

Reads the generator's manifest from DIR, imports herd from SRC, and runs the
cycle of jobs over and over, in whole cycles, until about S seconds have been
spent inside jobs. Each job is timed around its herd calls only. Its output,
reduced to plain numbers, then goes to the oracle process, which checks it
while the next job runs. The loop never waits for a verdict: waiting would
idle the core and slow the job after it, and holding results to check later
would add to this process's memory and garbage-collection work. Verdicts are
collected as they arrive and the rest at the end. Writes ``result.json`` (and
``spans.npz`` when tracing) to DIR.

Set-up is timed here too, as a fresh interpreter that imports ``herd.cli``
and loads the first job's design or spec. The samples are spread evenly over
the run's job time: at each, the loop waits for the oracle to go idle and
times one set-up with nothing else running. The host's speed drifts over
seconds, so samples taken back to back would all see the same moment.

Between untraced jobs, every ``hostspeed.SAMPLE_EVERY_S`` of job time, the
loop times the host-speed reference, and each job gets the host's slowdown at
its moment (see ``hostspeed.py``). Set-up is not adjusted: its time does not
follow the reference.

With ``--trace 1`` every job runs twice, once untraced and once traced, in
alternating order, so the tracing overhead is measured on the same jobs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import hostspeed
import oracle
import tracing


class AnalyzeDense:
    """`herd analyze` through ``herd.cli.main``, one output file per job."""

    def __init__(self, herd, jobs):
        self.herd = herd
        self.runs = 0

    def load(self, job):
        # A fresh output path per run: the oracle deletes each file after
        # checking it, possibly while later jobs run.
        self.runs += 1
        return job["argv"][:-1] + [f"{job['out']}.{self.runs}"]

    def run(self, job, argv):
        return job["points"], (argv[-1], self.herd["cli"].main(argv))

    def extract(self, outcome):
        return outcome


class MeasuredQA:
    """``parse_touchstone`` then ``check_claims`` (strict12) per file."""

    def __init__(self, herd, jobs):
        self.herd = herd
        self.claims = herd["cli"].CLAIM_PROFILES["strict12"]
        self.parse_error = herd["herd"].ParseError

    def load(self, job):
        return Path(job["file"]).read_text()

    def run(self, job, text):
        tsio = self.herd["tsio"]
        try:
            table = tsio.parse_touchstone(text)
        except self.parse_error as exc:
            return job["rows"], exc
        return len(table.grid), (table, tsio.check_claims(table, self.claims))

    def extract(self, outcome):
        if isinstance(outcome, Exception):
            return {"error": (type(outcome).__name__, outcome.line)}
        table, report = outcome
        return {
            "f": np.array(table.grid.points),
            "s": np.array([(p.s11, p.s21, p.s12, p.s22) for p in table.entries], dtype=complex),
            "mag_only": table.mag_only,
            "passed": [r.passed for r in report.results],
            "observed": [r.observed_db for r in report.results],
        }


# synthesize() verifies on a passband and a stopband grid of this many points
# (the default of synthesis.verify).
VERIFY_POINTS = 101


class SynthExplore:
    """Spec round trip, synthesis, design round trip and follow-up queries."""

    def __init__(self, herd, jobs):
        self.herd = herd
        loads = herd["synthesis"].loads_design_spec
        self.specs = {job["spec_file"]: loads(Path(job["spec_file"]).read_text()) for job in jobs}
        self.infeasible = herd["herd"].InfeasibleDesignError
        r = gen.RANGES["synth_explore"]
        self.multiples = r["attenuation_at_corner_multiples"]
        self.widths = np.linspace(*r["width_sweep_over_a"])
        self.fmax_over_corner = r["mode_chart_fmax_over_corner"]
        self.points = 2 * VERIFY_POINTS + len(self.multiples) + len(self.widths)

    def load(self, job):
        return self.specs[job["spec_file"]]

    def run(self, job, spec):
        h = self.herd
        again = h["synthesis"].loads_design_spec(h["synthesis"].dumps_design_spec(spec))
        out = {"spec_round_trip": again == spec, "infeasible": True}
        try:
            report = h["synthesis"].synthesize(again)
        except self.infeasible:
            return 0, out
        design = report.design
        corner = spec.f_stopband_start
        f_top = spec.f_passband_top
        out.update(
            infeasible=False,
            report=report,
            design_round_trip=h["model"].loads_design(h["model"].dumps_design(design)) == design,
            attenuation=[
                (m * corner, h["cascade"].attenuation_vs_sections(design, m * corner, design.sections))
                for m in self.multiples
            ],
            sweep=[
                (w, f_top, h["leakage"].inband_transmission(h["model"].with_aperture(design, width_a=w), f_top))
                for w in (float(x) * design.aperture.width_a for x in self.widths)
            ],
            mode_fmax=self.fmax_over_corner * corner,
        )
        out["modes"] = h["modes"].mode_chart(design.aperture, design.aperture_fill, out["mode_fmax"])
        return self.points, out

    def extract(self, out):
        if out["infeasible"]:
            return out
        report = out.pop("report")
        d = report.design
        return {
            **out,
            "design": {
                "a_m": d.aperture.width_a,
                "b_m": d.aperture.height_b,
                "d_m": d.aperture.depth_d,
                "r_inner_m": d.coax.r_inner,
                "r_outer_m": d.coax.r_outer,
                "coax_eps_r": d.coax_fill.eps_r,
                "aperture_eps_r": d.aperture_fill.eps_r,
                "apertures_per_section": d.apertures_per_section,
                "sections": d.sections,
                "section_pitch_m": d.section_pitch,
                "stopband_kappa": d.stopband_kappa,
                "dominant_mode_axis": d.dominant_mode_axis.value,
            },
            "margins": (report.margin_passband_db, report.margin_stopband_db),
            "sweep": [(w, f, r.insertion_loss_db) for w, f, r in out["sweep"]],
            "modes": [e.cutoff_hz for e in out["modes"]],
        }


SETUP_SAMPLES = 20
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import herd.cli
t1 = time.perf_counter()
kind, path = sys.argv[1], sys.argv[2]
if kind == "design":
    herd.cli.loads_design(open(path).read())
elif kind == "spec":
    herd.cli.loads_design_spec(open(path).read())
print((t1 - t0) * 1e3)
"""


def first_input(job: dict) -> tuple[str, str]:
    """Set-up loads the first job's design or spec; measured_qa jobs have
    neither, so its set-up is the import alone."""
    if "design_file" in job:
        return "design", job["design_file"]
    if "spec_file" in job:
        return "spec", job["spec_file"]
    return "none", ""


def time_setup(job: dict) -> tuple[float, float]:
    """Wall seconds of one fresh-interpreter set-up, and its import ms."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, *first_input(job)],
                          capture_output=True, text=True, timeout=60, check=True)
    return perf_counter() - t0, float(done.stdout)


RUNNERS = {"analyze_dense": AnalyzeDense, "measured_qa": MeasuredQA, "synth_explore": SynthExplore}


def _label(job: dict) -> str:
    return Path(job.get("file") or job.get("design_file") or job["spec_file"]).name


def import_herd(src: Path) -> dict:
    import herd

    if Path(herd.__file__).resolve().parent != (src / "herd").resolve():
        raise SystemExit(f"herd imported from {herd.__file__}, not from {src}")
    names = ("cli", "model", "modes", "leakage", "cascade", "synthesis", "tsio")
    # Not getattr(herd, name): the package's `cascade` is the function.
    modules = {name: importlib.import_module(f"herd.{name}") for name in names}
    modules["herd"] = herd
    return modules


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest = json.loads((args.workdir / "manifest.json").read_text())
    jobs = manifest["jobs"]
    context = multiprocessing.get_context("spawn")
    conn, oracle_end = context.Pipe()
    checker = context.Process(target=oracle.serve, args=(oracle_end, str(args.workdir)), daemon=True)
    checker.start()
    try:
        conn.recv()  # the oracle is loaded; it no longer competes with the first jobs
        records, problems, setups, wall = run_jobs(args, jobs, RUNNERS[manifest["workload"]], conn)
    finally:
        conn.send(None)
        checker.join(timeout=30)
        if checker.is_alive():
            checker.kill()
            checker.join()
    result = {
        "records": records,
        "problems": problems[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": [wall for wall, _ in setups],
        "import_ms": [ms for _, ms in setups],
        "wall_s": wall,
    }
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


def run_jobs(args, jobs: list, make_runner, conn) -> tuple[list, list, list, float]:
    """The closed loop, in whole cycles of the job list, until the job time
    is as close to ``args.seconds`` as a whole cycle allows. Whole cycles keep
    the mix of every run the same. Untraced, a host-speed reference sample is
    taken every ``hostspeed.SAMPLE_EVERY_S`` of job time, between jobs, and
    the job time counted is at the reference speed, so that a run has the
    same number of cycles whatever the host's state (analyze_dense's tail
    percentile depends on the number of jobs).
    Returns [sequence, traced, ms, points, ok, slowdown] per job run (the
    slowdown is 1.0 when tracing), the problems found, the set-up samples
    (wall s, import ms) and the wall time spent."""
    herd = import_herd(args.src)
    runner = make_runner(herd, jobs)
    tracer = tracing.Tracer(herd) if args.trace else None
    records = []  # (sequence, traced, ms, points) tuples, which gc does not track
    problems = {}  # (sequence, traced) -> what went wrong
    in_flight = 0
    busy = 0.0
    started = perf_counter()
    wall_limit = 3.0 * args.seconds + 20.0
    sequence = cycles = 0
    time_setup(jobs[0])  # untimed: byte-code caches then exist, as they do for users
    setups = []
    speed_at = []  # jobs run before each reference sample
    speed = []  # reference sample ms
    since_sample = 0.0

    def sample_speed():
        nonlocal since_sample
        if tracer is None:
            speed_at.append(len(records))
            speed.append(hostspeed.sample())
            since_sample = 0.0

    def sample_setup():
        while in_flight:
            receive()
        setups.append(time_setup(jobs[0]))

    def receive():
        nonlocal in_flight
        key, found = conn.recv()
        in_flight -= 1
        if found:
            problems[key] = f"job {key[0]} ({_label(jobs[key[0] % len(jobs)])}): {'; '.join(found)}"

    while busy + busy / max(cycles, 1) / 2 < args.seconds and perf_counter() - started < wall_limit:
        for position, job in enumerate(jobs):
            modes = (False,) if tracer is None else ((False, True) if sequence % 2 == 0 else (True, False))
            if len(setups) < SETUP_SAMPLES and busy >= len(setups) * args.seconds / SETUP_SAMPLES:
                sample_setup()
            for traced in modes:
                if not speed or since_sample >= hostspeed.SAMPLE_EVERY_S:
                    sample_speed()
                payload = runner.load(job)
                outcome = None
                t0 = perf_counter()
                try:
                    if traced:
                        tracer.install()
                        t0 = perf_counter()
                        points, outcome = tracer.job_span(sequence, lambda: runner.run(job, payload))
                    else:
                        points, outcome = runner.run(job, payload)
                    elapsed = perf_counter() - t0
                except Exception:
                    elapsed = perf_counter() - t0
                    points = 0
                    problems[(sequence, traced)] = f"job {sequence} ({_label(job)}): {traceback.format_exc(limit=3)}"
                finally:
                    if traced:
                        tracer.uninstall()
                records.append((sequence, traced, elapsed * 1e3, points))
                if (sequence, traced) not in problems:
                    conn.send(((sequence, traced), position, runner.extract(outcome)))
                    in_flight += 1
                outcome = payload = None
                busy += elapsed / hostspeed.slowdown(speed[-hostspeed.REACH:])
                since_sample += elapsed
                while conn.poll():
                    receive()
            sequence += 1
        cycles += 1
    sample_speed()
    while len(setups) < SETUP_SAMPLES:
        sample_setup()
    while in_flight:
        receive()
    if tracer is not None:
        tracer.save(args.workdir / "spans.npz")
    slowdowns = hostspeed.slowdowns(speed_at, speed, len(records))
    rows = [[seq, traced, ms, points, (seq, traced) not in problems, slowdown]
            for (seq, traced, ms, points), slowdown in zip(records, slowdowns)]
    return rows, list(problems.values()), setups, perf_counter() - started


if __name__ == "__main__":
    sys.exit(main())
