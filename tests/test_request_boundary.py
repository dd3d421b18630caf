"""The test request is where hypotheses meet a solver: its anchors are
checked against its space once, when it is built, and a solver takes
requests only for its own space, whose alphabet is its model's faults."""

from pathlib import Path

import pytest

from diagfp.circuits import CircuitSolver, parse_circuit
from diagfp.contract import TestRequest
from diagfp.desmodel import Observation, parse_model
from diagfp.errors import DiagError, ModelFormatError, SpaceMismatchError
from diagfp.explicit import (ExplicitSolver, fits_horizon, oracle_candidates,
                             oracle_diagnose)
from diagfp.hypothesis import BHS, MHS, SHS, Space, multi_hyp, set_hyp
from diagfp.properties import DESC, NEG_DESC, Property, question_coverage
from diagfp.satbackend import SatSolver
from diagfp.strategies import STRATEGIES, run_strategy

from test_explicit import Recording
from test_live_kernel import (ALARM_OBS, ALARM_PARAMS, ALARMS,
                              solvers_and_diagnoses)

CIRCUITS = Path(__file__).parent / "fixtures" / "circuits"


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
def test_validate_runs_once_per_request_anchor(strategy, monkeypatch):
    for make, expected in solvers_and_diagnoses():
        solver = make()
        calls = []
        validate = Space.validate
        monkeypatch.setattr(
            Space, "validate",
            lambda self, h: calls.append(h) or validate(self, h))
        recording = Recording(solver)
        got = run_strategy(strategy, recording, solver.space)
        monkeypatch.undo()
        assert got.minimal_candidates == expected
        sizes = sum(len(request.props) for request, *_ in recording.log)
        assert sizes > 0
        assert len(calls) == sizes


def test_request_rejects_anchor_outside_its_space():
    space = Space(SHS, ("a", "b"))
    props = (Property(DESC, set_hyp(["a"])), Property(NEG_DESC, set_hyp(["b"])))
    # an iterator is stored as a tuple before its anchors are validated
    assert TestRequest(iter(props), space).props == props
    with pytest.raises(SpaceMismatchError):
        TestRequest((Property(NEG_DESC, set_hyp(["a"])),
                     Property(DESC, set_hyp(["c"]))), space)
    with pytest.raises(SpaceMismatchError):
        TestRequest((Property(DESC, multi_hyp({"a": 1})),), space)


def _solvers():
    circuit, obs = parse_circuit((CIRCUITS / "and1.ckt").read_text())
    yield CircuitSolver(circuit, obs)
    model = parse_model(ALARMS)
    yield SatSolver(model, ALARM_OBS, model.space(SHS), ALARM_PARAMS)
    yield ExplicitSolver(model, ALARM_OBS, model.space(SHS))


@pytest.mark.parametrize("solver", _solvers(), ids=lambda s: s.name)
def test_solver_refuses_request_for_another_space(solver):
    def untouched():
        # the kernel (SAT) and the visited count (explicit) are made by the
        # first test a solver runs
        return getattr(solver, "kernel", None) is None \
            and "visited" not in solver.stats.extra

    other = Space(SHS, solver.space.faults[:-1])
    with pytest.raises(SpaceMismatchError):
        solver.solve(TestRequest(question_coverage([], other), other))
    assert untouched()
    own = solver.space
    solver.solve(TestRequest(question_coverage([], own), own))
    assert not untouched()


DES_SOLVERS = pytest.mark.parametrize("make", [
    lambda model, space, obs=ALARM_OBS: SatSolver(model, obs, space,
                                                  ALARM_PARAMS),
    lambda model, space, obs=ALARM_OBS: ExplicitSolver(model, obs, space),
    lambda model, space, obs=ALARM_OBS: oracle_diagnose(model, obs, space),
    lambda model, space, obs=ALARM_OBS: oracle_candidates(model, obs, space,
                                                          1),
], ids=["sat", "explicit", "oracle_diagnose", "oracle_candidates"])

# observations with an event that the alarm model does not observe, and
# that event: unknown, a fault, or unobservable after a good prefix
BAD_OBSERVATIONS = pytest.mark.parametrize("events, bad", [
    (("nosuch",), "nosuch"), (("f1a",), "f1a"),
    (("alarm2", "p1", "alarm1"), "p1")])


@DES_SOLVERS
def test_solver_refuses_alphabet_other_than_model_faults(make):
    model = parse_model(ALARMS)
    for faults in (model.faults[:-1], model.faults + ("f9",)):
        with pytest.raises(SpaceMismatchError):
            make(model, Space(MHS, faults))
    make(model, Space(MHS, tuple(reversed(model.faults))))


@DES_SOLVERS
def test_solver_refuses_bhs_space(make):
    # when it is built, not on its first test
    model = parse_model(ALARMS)
    with pytest.raises(DiagError, match="does not handle space bhs"):
        make(model, Space(BHS, model.faults))


@DES_SOLVERS
@BAD_OBSERVATIONS
def test_solver_refuses_observation_of_an_unobserved_event(make, events, bad):
    # when it is built, naming the first such event
    model = parse_model(ALARMS)
    with pytest.raises(ModelFormatError, match=f"event '{bad}' is not"):
        make(model, model.space(SHS), Observation(events))


@DES_SOLVERS
def test_observation_given_as_a_list_diagnoses_like_the_tuple(make):
    model = parse_model(ALARMS)
    space = model.space(SHS)

    def answer(obs):
        made = make(model, space, obs)
        if hasattr(made, "solve"):
            return run_strategy("pfs-ec", made, space).minimal_candidates
        return made
    assert answer(Observation(list(ALARM_OBS.sequence))) == answer(ALARM_OBS)


EXPLICIT_ENTRY_POINTS = pytest.mark.parametrize("entry", [
    lambda model, obs, request, **kw: ExplicitSolver(
        model, obs, request.space, **kw).solve(request),
    lambda model, obs, request, **kw: fits_horizon(
        model, obs, request, ALARM_PARAMS.steps_per_obs, **kw),
], ids=["solve", "fits_horizon"])


@EXPLICIT_ENTRY_POINTS
@BAD_OBSERVATIONS
def test_explicit_entry_points_refuse_observation_of_an_unobserved_event(
        entry, events, bad):
    model = parse_model(ALARMS)
    space = model.space(SHS)
    with pytest.raises(ModelFormatError, match=f"event '{bad}' is not"):
        entry(model, Observation(events),
              TestRequest(question_coverage([], space), space))


BAD_BUDGETS = pytest.mark.parametrize(
    "budget", [True, 2.5, 0, -1, "10", None])


@BAD_BUDGETS
@pytest.mark.parametrize("make", [
    lambda model, space, budget: ExplicitSolver(model, ALARM_OBS, space,
                                                budget),
    lambda model, space, budget: oracle_diagnose(model, ALARM_OBS, space,
                                                 budget),
    lambda model, space, budget: oracle_candidates(model, ALARM_OBS, space,
                                                   1, budget),
], ids=["explicit", "oracle_diagnose", "oracle_candidates"])
def test_explicit_search_refuses_a_state_budget_not_a_positive_int(make,
                                                                   budget):
    model = parse_model(ALARMS)
    with pytest.raises(DiagError, match="state_budget must be an int >= 1"):
        make(model, model.space(SHS), budget)


@BAD_BUDGETS
@EXPLICIT_ENTRY_POINTS
def test_explicit_entry_points_refuse_a_state_budget_not_a_positive_int(
        entry, budget):
    model = parse_model(ALARMS)
    space = model.space(SHS)
    request = TestRequest(question_coverage([], space), space)
    with pytest.raises(DiagError, match="state_budget must be an int >= 1"):
        entry(model, ALARM_OBS, request, state_budget=budget)
    entry(model, ALARM_OBS, request, state_budget=1000)


@BAD_BUDGETS
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_refuse_an_iteration_cap_not_a_positive_int(strategy,
                                                               budget):
    # before the first test is sent
    model = parse_model(ALARMS)
    space = model.space(SHS)
    recording = Recording(SatSolver(model, ALARM_OBS, space,
                                    ALARM_PARAMS))
    with pytest.raises(DiagError, match="iteration_cap must be an int >= 1"):
        run_strategy(strategy, recording, space, iteration_cap=budget)
    assert recording.log == []


@pytest.mark.parametrize("steps", [True, 2.5, 0, -1, "3", None])
def test_fits_horizon_refuses_steps_per_obs_not_a_positive_int(steps):
    # as EncodingParams does
    model = parse_model(ALARMS)
    space = model.space(SHS)
    request = TestRequest(question_coverage([], space), space)
    with pytest.raises(DiagError, match="steps_per_obs must be an int >= 1"):
        fits_horizon(model, ALARM_OBS, request, steps)


@EXPLICIT_ENTRY_POINTS
def test_explicit_entry_points_refuse_alphabet_other_than_model_faults(entry):
    model = parse_model(ALARMS)
    space = Space(MHS, model.faults[:-1])
    with pytest.raises(SpaceMismatchError):
        entry(model, ALARM_OBS, TestRequest(question_coverage([], space),
                                            space))
