"""The benchmark traces herd functions by module attribute and by name.

``perfbench/tracing.py`` wraps each ``(layer, fn)`` it lists at
``herd.<layer>.<fn>``; a function renamed or moved out of its module would
otherwise only show when a traced benchmark run crashes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = [(layer, fn) for layer, fn, _ in tracing.SPANNED] + list(tracing.COUNTED)


@pytest.mark.parametrize("layer,fn", TRACED, ids=[f"{layer}.{fn}" for layer, fn in TRACED])
def test_traced_function_resolves(layer, fn):
    target = getattr(importlib.import_module(f"herd.{layer}"), fn)
    assert target.__name__ == fn


def test_grid_span_size_reads_points():
    # the FrequencyGrid span is sized from its first argument, named points
    from herd import FrequencyGrid

    assert next(iter(inspect.signature(FrequencyGrid).parameters)) == "points"
    size = dict((fn, size) for _, fn, size in tracing.SPANNED)["FrequencyGrid"]
    points = FrequencyGrid.linear(1e9, 2e9, 7).points
    assert size((None, points), {}) == size((None,), {"points": points}) == 7
