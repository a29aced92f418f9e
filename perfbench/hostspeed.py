"""How fast the host runs right now, from a fixed piece of reference work.

On a shared virtual machine the same code runs up to 1.7 times slower at
times, as other tenants load the host, and the slow spells last from tenths
of a second to minutes. A run's raw job times follow those spells, so two
runs of the same code can differ by more than any useful bound. The worker
therefore times a short, fixed reference (interpreted Python and small numpy
arrays, as herd's own work is) between jobs, and divides each job's time by
the host's slowdown around it: the mean reference time of the nearest
samples over ``REFERENCE_MS``. Timings are then in milliseconds at the
reference speed. On the machine in ``baseline.json``, over five to ten
minutes of each workload cut into thirty-second windows, this took the
spread (interquartile distance over median) of the mean job time from
0.08-0.27 to 0.02-0.05.

The reference does not touch herd, so a change to herd moves the numerator
only. Raw figures are kept on the ``detail`` line.
"""

from __future__ import annotations

import bisect
import gc
import math
from time import perf_counter

import numpy as np

# About the reference's time on the machine in baseline.json, in its fast
# state, while the loop keeps the core busy.
REFERENCE_MS = 1.5
# Job time between two reference samples.
SAMPLE_EVERY_S = 0.05
# Samples on each side of a job that set its slowdown.
REACH = 2

_ARRAY = np.linspace(1.0, 2.0, 101)


def _reference() -> float:
    total = 0.0
    table = {}
    for i in range(2000):
        table[i & 63] = (i, i * 1.5)
        total += len(str(i)) + math.sqrt(i)
    for i in range(100):
        total += float(np.sqrt(_ARRAY * 1.0001 + i).sum())
    return total


def sample() -> float:
    """Milliseconds of one reference run, with the garbage collector off so
    that herd's heap does not add to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference()
        return (perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def slowdown(near: list[float]) -> float:
    """The host's slowdown from reference samples taken near one moment;
    1.0 without any (traced runs take none)."""
    return sum(near) / len(near) / REFERENCE_MS if near else 1.0


def slowdowns(positions: list[int], samples: list[float], count: int) -> list[float]:
    """The host's slowdown around each of ``count`` jobs. Sample ``k`` was
    taken after ``positions[k]`` jobs had run (positions ascending, the first
    0). A job's slowdown is the mean of the ``REACH`` samples before it and
    the ``REACH`` after it, over ``REFERENCE_MS``."""
    out = []
    for job in range(count):
        last_before = bisect.bisect_right(positions, job) - 1
        out.append(slowdown(samples[max(0, last_before - REACH + 1): last_before + REACH + 1]))
    return out
