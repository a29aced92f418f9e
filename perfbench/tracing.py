"""Spans and counts recorded from outside herd.

``Tracer.install()`` replaces each traced public function at every herd
module attribute that refers to it (``herd.cli.filter_response``,
``herd.synthesis.verify``, ...), which is where herd looks them up at call
time; ``uninstall()`` puts the originals back. A spanned function records
(name, start, end, parent, job, size) per call in flat arrays; a counted
function, one that runs once per grid point, only counts calls, because a
span per point would cost more than the work it measures. Both count
exceptions by class. Spans stay in memory until ``save``.
"""

from __future__ import annotations

import collections
import json
from array import array
from time import perf_counter_ns

import numpy as np

# (layer, function, size of the call's work or None). Size is the number of
# grid points or table rows, or the lines of Touchstone text for the parser.
SPANNED = (
    ("cli", "main", None),
    ("model", "loads_design", None),
    ("model", "dumps_design", None),
    ("model", "FrequencyGrid", lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["points"])),
    ("cascade", "filter_response", lambda args, kwargs: len(args[1])),
    ("cascade", "attenuation_vs_sections", None),
    ("leakage", "inband_transmission", None),
    ("modes", "mode_chart", None),
    ("synthesis", "synthesize", None),
    ("synthesis", "verify", None),
    ("synthesis", "loads_design_spec", None),
    ("synthesis", "dumps_design_spec", None),
    ("tsio", "parse_touchstone", lambda args, kwargs: args[0].count("\n")),
    ("tsio", "write_touchstone", lambda args, kwargs: len(args[0].entries)),
    ("tsio", "check_claims", None),
    ("tsio", "band_metrics", None),
)
COUNTED = (("modes", "corner_frequency"),)

JOB = "job"


class Tracer:
    def __init__(self, herd_modules: dict):
        self.modules = herd_modules
        self.names = [JOB] + [f"{layer}.{fn}" for layer, fn, _ in SPANNED]
        self.start, self.end, self.parent = array("q"), array("q"), array("q")
        self.name, self.job, self.size = array("q"), array("q"), array("q")
        self.stack = [-1]
        self.job_id = -1
        self.counts = collections.Counter()
        self.raised = collections.Counter()
        self._patches = []
        self._wrappers = {}
        for index, (layer, fn, size) in enumerate(SPANNED, start=1):
            self._wrappers[(layer, fn)] = self._span(index, getattr(herd_modules[layer], fn), size)
        for layer, fn in COUNTED:
            self._wrappers[(layer, fn)] = self._count(f"{layer}.{fn}", getattr(herd_modules[layer], fn))

    # --- recording -----------------------------------------------------------

    def _open(self, name_index: int, size: int) -> int:
        index = len(self.start)
        self.name.append(name_index)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.size.append(size)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def _span(self, name_index: int, fn, size_of):
        name = self.names[name_index]
        if isinstance(fn, type):
            # A class is traced through its __init__, which the wrapper replaces.
            init = fn.__init__

            def traced_init(*args, **kwargs):
                index = self._open(name_index, size_of(args, kwargs) if size_of else 0)
                try:
                    return init(*args, **kwargs)
                except BaseException as exc:
                    self.raised[(name, type(exc).__name__)] += 1
                    raise
                finally:
                    self._close(index)

            return ("class", fn, init, traced_init)

        def traced(*args, **kwargs):
            index = self._open(name_index, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(index)

        return ("function", fn, fn, traced)

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise

        return ("function", fn, fn, counted)

    def job_span(self, job_id: int, run):
        """Run ``run()`` as the root span of job ``job_id``."""
        self.job_id = job_id
        index = self._open(0, 0)
        try:
            return run()
        finally:
            self._close(index)
            self.job_id = -1

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        for kind, original, inner, wrapper in self._wrappers.values():
            if kind == "class":
                original.__init__ = wrapper
                self._patches.append((original, "__init__", inner))
                continue
            for module in self.modules.values():
                if getattr(module, original.__name__, None) is original:
                    setattr(module, original.__name__, wrapper)
                    self._patches.append((module, original.__name__, original))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # --- output --------------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
            size=np.frombuffer(self.size, dtype=np.int64),
            names=np.array(self.names),
            counts=json.dumps(dict(self.counts)),
            raised=json.dumps({f"{name}.raised.{cls}": n for (name, cls), n in self.raised.items()}),
        )


def self_times(spans) -> dict:
    """Per span name: calls, total and self time [ns], and total size.

    A span's self time is its duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    own = duration - children
    names = spans["names"]
    out = {}
    for index, name in enumerate(names):
        mask = spans["name"] == index
        out[str(name)] = {
            "calls": int(mask.sum()),
            "total_ns": float(duration[mask].sum()),
            "self_ns": float(own[mask].sum()),
            "size": int(spans["size"][mask].sum()),
        }
    return out
