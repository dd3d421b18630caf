"""Spaces, models, observations, circuits, encoding parameters, solver
stats and diagnosis results are records: slots classes or named tuples,
equal and hashed by the fields their constructors take, never by the
fields they derive."""

import dataclasses
import importlib
import pkgutil

import pytest

import diagfp
from diagfp.circuits import Circuit, Gate, PinObservation
from diagfp.contract import SolverStats
from diagfp.desmodel import Component, DesModel, Observation
from diagfp.errors import DiagError
from diagfp.hypothesis import SHS, Space, set_hyp
from diagfp.satbackend import EncodingParams
from diagfp.strategies import DiagnosisResult

COMP = Component("c", ("s", "t"), ("s",), (("s", "f", "t"), ("t", "o", "s")))
GATE = Gate("g", "buf", "y", ("x",))

# name -> (record, an unequal record of its class, its compared fields)
COMPARED = {
    "space": (Space(SHS, ("f", "g")), Space(SHS, ("g", "f")),
              ("kind", "faults")),
    "component": (COMP, Component("c", ("s", "t"), ("t",), COMP.trans),
                  ("name", "states", "init", "trans")),
    "model": (DesModel((COMP,), ("o",), ("f",)),
              DesModel((COMP,), (), ("f",)),
              ("components", "observable", "faults")),
    "observation": (Observation(("o",)), Observation(("o", "o")),
                    ("sequence",)),
    "gate": (GATE, Gate("g", "not", "y", ("x",)),
             ("name", "kind", "output", "inputs")),
    "circuit": (Circuit((GATE,), ("x",), ("y",)),
                Circuit((GATE,), ("x",), ()),
                ("gates", "inputs", "outputs")),
    "pins": (PinObservation((("y", True),)), PinObservation(()),
             ("assignments",)),
    "params": (EncodingParams(3), EncodingParams(), ("steps_per_obs",)),
}
DERIVED = {"space": ("fault_set",), "component": ("alphabet", "table"),
           "model": ("events",), "circuit": ("signals",)}
SLOTS = ("space", "component", "model", "observation", "circuit")


@pytest.mark.parametrize("name", COMPARED)
def test_equality_and_hash_are_those_of_the_compared_fields(name):
    # set and dict orders, and with them every search, depend on the hash
    value, other, fields = COMPARED[name]
    values = tuple(getattr(value, f) for f in fields)
    assert hash(value) == hash(values)
    rebuilt = type(value)(*values)
    assert rebuilt == value and rebuilt is not value
    assert hash(rebuilt) == hash(value)
    assert value != other


@pytest.mark.parametrize("name", COMPARED)
def test_fields_are_read_only(name):
    value, _, fields = COMPARED[name]
    for f in fields + DERIVED.get(name, ()):
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("name", SLOTS)
def test_slots_records_have_no_instance_dict(name):
    value = COMPARED[name][0]
    assert not hasattr(value, "__dict__")
    # a slots record is not a tuple: it equals no tuple of its fields
    assert value != tuple(getattr(value, f) for f in COMPARED[name][2])


def test_repr_shows_the_compared_fields():
    # SpaceMismatchError messages embed the space's repr
    assert repr(Space(SHS, ("f", "g"))) == \
        "Space(kind='shs', faults=('f', 'g'))"
    assert repr(Observation(["o"])) == "Observation(sequence=('o',))"
    assert repr(EncodingParams()) == "EncodingParams(steps_per_obs=7)"


def test_observation_keeps_a_tuple_and_its_length():
    obs = Observation(["o", "p"])
    assert obs.sequence == ("o", "p") and len(obs) == 2
    assert obs == Observation(("o", "p"))


def test_replaced_params_are_checked():
    params = EncodingParams(steps_per_obs=4)
    assert params._replace(steps_per_obs=2) == EncodingParams(2)
    with pytest.raises(DiagError):
        params._replace(steps_per_obs=0)


def test_circuit_builds_its_space_once():
    circuit = COMPARED["circuit"][0]
    assert circuit.space() is circuit.space()
    assert circuit.space() == Space(SHS, ("g",))


def test_mutable_records_compare_by_fields_and_are_unhashable():
    stats = SolverStats()
    assert stats == SolverStats({}) and stats.extra is not SolverStats().extra
    stats.extra = {"visited": 1}
    assert stats != SolverStats()
    result = DiagnosisResult([set_hyp(["f"])])
    assert result == DiagnosisResult([set_hyp(["f"])], {})
    result.stats = {"tests": 1}
    assert result != DiagnosisResult([set_hyp(["f"])])
    for value in (stats, result):
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            hash(value)


def test_no_class_in_the_package_is_a_dataclass():
    # a dataclass builds its methods with exec on every import of its module
    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(diagfp.__path__, "diagfp.")]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert Space in classes and DiagnosisResult in classes
    assert [c.__qualname__ for c in classes
            if dataclasses.is_dataclass(c)] == []
