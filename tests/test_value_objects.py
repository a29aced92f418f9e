"""The contract of herd's value objects: every dataclass in every herd module
is built by ``model.value_class`` and keeps what a frozen dataclass gives.

The classes are found by walking the package, so a class added later is
covered, and fails until it has a sample below."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import herd
from herd import DomainError, FilterDesign, FrequencyGrid, prototype_design
from herd.cascade import TwoPort, filter_response
from herd.leakage import inband_transmission
from herd.model import DESIGN_FILE, PTFE
from herd.modes import mode_chart
from herd.synthesis import loads_design_spec, synthesize
from herd.tsio import band_metrics, check_claims
from herd.cli import CLAIM_PROFILES

SPEC_TEXT = (Path(__file__).resolve().parents[1] / "configs" / "reference_targets.spec").read_text()


def _dataclasses() -> dict[str, type]:
    """Every dataclass defined in a herd module, by its qualified name.
    ``herd.__main__`` runs the command line when imported, so it is skipped."""
    found = {}
    for info in pkgutil.iter_modules(herd.__path__, "herd."):
        if info.name == "herd.__main__":
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            own = isinstance(value, type) and value.__module__ == module.__name__
            if own and dataclasses.is_dataclass(value):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


CLASSES = _dataclasses()


def _table():
    return filter_response(prototype_design(), FrequencyGrid.linear(1e9, 100e9, 11))


# One instance of each class, built the way herd builds it where it can be.
SAMPLES = {
    "herd.model.Material": lambda: PTFE,
    "herd.model.CoaxGeometry": lambda: prototype_design().coax,
    "herd.model.RectAperture": lambda: prototype_design().aperture,
    "herd.model.FilterDesign": prototype_design,
    "herd.model.FrequencyGrid": lambda: FrequencyGrid.linear(1e9, 2e9, 5),
    "herd.model.Field": lambda: DESIGN_FILE.fields[-1],
    "herd.synthesis.DesignSpec": lambda: loads_design_spec(SPEC_TEXT),
    "herd.synthesis.SynthesisReport": lambda: synthesize(loads_design_spec(SPEC_TEXT)),
    "herd.leakage.InbandLossBreakdown": lambda: inband_transmission(prototype_design(), 10e9),
    "herd.modes.ModeEntry": lambda: mode_chart(prototype_design().aperture, PTFE, 60e9)[1],
    "herd.cascade.TwoPort": lambda: TwoPort(0.1 + 0.2j, 0.9 - 0.1j, 0.9 - 0.1j, 0.1 + 0.2j),
    "herd.tsio.BandMetric": lambda: band_metrics(_table(), (1e9, 50e9)),
    "herd.tsio.Claim": lambda: CLAIM_PROFILES["strict12"][2],
    "herd.tsio.ClaimResult": lambda: check_claims(_table(), CLAIM_PROFILES["default"]).results[0],
    "herd.tsio.ComplianceReport": lambda: check_claims(_table(), CLAIM_PROFILES["strict12"]),
}


def _same(a, b) -> bool:
    """Equal values; grids compare by identity, so by their points here."""
    if isinstance(a, FrequencyGrid):
        return type(b) is FrequencyGrid and a.points.tolist() == b.points.tolist()
    return a == b and hash(a) == hash(b)


def test_every_dataclass_has_a_sample():
    assert sorted(CLASSES) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(CLASSES))
class TestValueClass:
    def test_it_is_frozen_and_built_by_one_dict_update(self, name):
        cls = CLASSES[name]
        assert cls.__dataclass_params__.frozen
        # The dataclass's own __init__ stores each field with
        # object.__setattr__; value_class's reads nothing but these names.
        names = set(cls.__init__.__code__.co_names)
        assert {"__dict__", "update"} <= names <= {"__dict__", "update", "__post_init__"}

    def test_its_signature_lists_its_fields_and_defaults(self, name):
        cls = CLASSES[name]
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in dataclasses.fields(cls)]
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
        defaults = [inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
                    for f in dataclasses.fields(cls)]
        assert [p.default for p in params] == defaults

    def test_its_fields_refuse_assignment(self, name):
        obj = SAMPLES[name]()
        for field in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))

    def test_it_holds_its_fields_and_what_its_checks_add(self, name):
        obj = SAMPLES[name]()
        names = [field.name for field in dataclasses.fields(obj)]
        extra = {"herd.model.Material": ["refractive_index"]}.get(name, [])
        assert list(vars(obj)) == names + extra

    def test_replace_copy_and_pickle_keep_it(self, name):
        obj = SAMPLES[name]()
        for other in (
            dataclasses.replace(obj),
            copy.copy(obj),
            copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj)),
        ):
            assert type(other) is type(obj)
            assert _same(obj, other)


def test_replace_runs_the_checks_again():
    with pytest.raises(DomainError) as built:
        FilterDesign(**{**vars(prototype_design()), "sections": 0})
    with pytest.raises(DomainError) as replaced:
        dataclasses.replace(prototype_design(), sections=0)
    assert str(replaced.value) == str(built.value) == "sections must be >= 1 (got 0)"


def test_a_copied_grid_keeps_read_only_points():
    grid = FrequencyGrid.linear(1e9, 2e9, 5)
    for other in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert other.points.flags.writeable is False
        assert other.points.dtype == float


def test_value_class_refuses_fields_it_cannot_build():
    from herd.model import value_class

    with pytest.raises(TypeError, match="positional fields with plain defaults"):

        @value_class
        class Listed:
            items: list = dataclasses.field(default_factory=list)
