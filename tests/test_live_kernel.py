"""Differential tests of the live kernel that each SAT test solver keeps
across its tests: every answer must agree with a fresh one-shot solve."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp import satbackend
from diagfp.circuits import CircuitSolver, brute_force_diagnosis, parse_circuit
from diagfp.contract import TestRequest
from diagfp.desmodel import Observation, parse_model
from diagfp.explicit import ExplicitSolver, oracle_diagnose
from diagfp.hypothesis import (MHS, SHS, SQHS, Space, children,
                               min_antichain, multi_hyp, seq_hyp, set_hyp)
from diagfp.properties import (DESC, NEG_DESC, Property, member,
                               question_candidate, question_coverage)
from diagfp.satbackend import EncodingParams, SatSolver
from diagfp.satcore.pysolver import MiniSolver as PySolver
from diagfp.strategies import run_strategy

from test_explicit import Recording
from test_strategies import EnumSolver

CIRCUITS = Path(__file__).parent / "fixtures" / "circuits"

# Two components that raise alarms when degraded.  c1 can reset itself
# unobserved (masking its faults) or hand its degradation to c2 through p1,
# so either component's faults explain an alarm of c2.
ALARMS = """
component c1
states ok deg
init ok
trans ok f1a deg
trans ok f1b deg
trans deg alarm1 ok
trans deg reset1 ok
trans deg p1 ok
end
component c2
states ok deg
init ok
trans ok f2 deg
trans deg alarm2 ok
trans ok p1 deg
end
observable alarm1 alarm2
faults f1a f1b f2
"""
ALARM_OBS = Observation(("alarm2", "alarm1"))
# f1a p1 alarm2 needs two unobservable steps before the first alarm
ALARM_PARAMS = EncodingParams(steps_per_obs=3)


def check_run(solver, strategy, one_shot, expected):
    recording = Recording(solver)
    got = run_strategy(strategy, recording, solver.space)
    assert got.minimal_candidates == expected
    space = solver.space
    for request, outcome in recording.log:
        fresh = one_shot(request)
        assert outcome.is_candidate == fresh.is_candidate, list(request.props)
        if outcome.is_candidate:
            assert member(outcome.candidate, request.props, space)
        else:
            # a sub-tuple of the request, in request order
            assert outcome.conflict == tuple(
                p for p in request.props if p in outcome.conflict)
            assert solver.check_conflict(outcome.conflict)


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
@pytest.mark.parametrize("name", ["inv3.ckt", "and1.ckt", "adder_slice.ckt"])
def test_circuit_live_kernel_matches_one_shot(name, strategy):
    circuit, obs = parse_circuit((CIRCUITS / name).read_text())
    check_run(CircuitSolver(circuit, obs), strategy,
              lambda request: CircuitSolver(circuit, obs).solve(request),
              brute_force_diagnosis(circuit, obs))


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
@pytest.mark.parametrize("kind", [MHS, SQHS])
def test_des_live_kernel_matches_one_shot(kind, strategy):
    model = parse_model(ALARMS)
    space = model.space(kind)
    check_run(SatSolver(model, ALARM_OBS, space, ALARM_PARAMS), strategy,
              lambda request: SatSolver(model, ALARM_OBS, space,
                                        ALARM_PARAMS).solve(request),
              oracle_diagnose(model, ALARM_OBS, space))


def test_kernel_is_created_by_the_first_test():
    model = parse_model(ALARMS)
    space = model.space(MHS)
    solver = SatSolver(model, ALARM_OBS, space, ALARM_PARAMS)
    assert solver.kernel is None
    solver.solve(TestRequest(question_coverage([], space), space))
    assert solver.kernel is not None


class BranchLoggingKernel(PySolver):
    """Reference kernel that logs the variable of every branching decision."""

    def __init__(self):
        super().__init__()
        self.branched = set()

    def _pick_branch(self):
        lit = super()._pick_branch()
        if lit >= 0:
            self.branched.add(lit >> 1)
        return lit


def solvers_and_diagnoses():
    for name in ("inv3.ckt", "and1.ckt", "adder_slice.ckt"):
        circuit, obs = parse_circuit((CIRCUITS / name).read_text())
        yield (lambda c=circuit, o=obs: CircuitSolver(c, o),
               brute_force_diagnosis(circuit, obs))
    model = parse_model(ALARMS)
    for kind in (SHS, MHS, SQHS):
        space = model.space(kind)
        yield (lambda s=space: SatSolver(model, ALARM_OBS, s, ALARM_PARAMS),
               oracle_diagnose(model, ALARM_OBS, space))


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
def test_activation_literals_are_never_decisions(strategy, monkeypatch):
    monkeypatch.setattr(satbackend, "MiniSolver", BranchLoggingKernel)
    branched = 0
    for make, expected in solvers_and_diagnoses():
        solver = make()
        got = run_strategy(strategy, solver, solver.space)
        assert got.minimal_candidates == expected
        assert not solver.kernel.branched & set(solver._acts.values())
        branched += len(solver.kernel.branched)
    assert branched  # the log does see decisions


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
def test_activation_literals_occur_only_negatively(strategy):
    # the invariant that makes activation literals safe non-decision
    # variables (see AssumptionSolver)
    checked = 0
    for make, expected in solvers_and_diagnoses():
        solver = make()
        got = run_strategy(strategy, solver, solver.space)
        assert got.minimal_candidates == expected
        acts = set(solver._acts.values())
        assert not any(lit in acts for clause in solver.cnf.clauses
                       for lit in clause)
        checked += len(acts)
    # circuit candidacy tests take no activation literal, and a pfs-ec run
    # on a small circuit may send no other test that names a property
    assert checked


def test_live_kernel_takes_property_clauses_after_a_satisfiable_test():
    # PLS's loop: each coverage question names the neg_desc of the answer
    # just returned, a property new to the solver, so its clauses reach the
    # live kernel while it still holds the satisfiable test's assignment
    for make, expected in solvers_and_diagnoses():
        solver, found = make(), []
        space = solver.space
        while True:
            request = TestRequest(question_coverage(found, space), space)
            before = len(solver.cnf.clauses)
            outcome = solver.solve(request)
            assert len(solver.cnf.clauses) > before or not found
            assert outcome.is_candidate == make().solve(request).is_candidate
            if not outcome.is_candidate:
                break
            assert member(outcome.candidate, request.props, space)
            found.append(outcome.candidate)
        assert min_antichain(found, space) == expected


def pfs_e_cases():
    """The fixture circuits, the alarm model on the SAT backend (MHS, SqHS)
    and on the explicit one (SHS, MHS, SqHS), and an enumerated SqHS
    candidate set, each with its exact diagnosis."""
    for name in ("inv3.ckt", "and1.ckt", "adder_slice.ckt"):
        circuit, obs = parse_circuit((CIRCUITS / name).read_text())
        yield (lambda c=circuit, o=obs: CircuitSolver(c, o),
               brute_force_diagnosis(circuit, obs))
    model = parse_model(ALARMS)
    for kind in (MHS, SQHS):
        space = model.space(kind)
        yield (lambda s=space: SatSolver(model, ALARM_OBS, s, ALARM_PARAMS),
               oracle_diagnose(model, ALARM_OBS, space))
    for kind in (SHS, MHS, SQHS):
        space = model.space(kind)
        yield (lambda s=space: ExplicitSolver(model, ALARM_OBS, s),
               oracle_diagnose(model, ALARM_OBS, space))
    # Answering with its largest candidate, the solver witnesses [b,a] on
    # the first test.  [b,a] is pushed as a child of [a] and popped after
    # [b] is stored, so only the result check may drop it.
    space = Space(SQHS, ("a", "b"))
    cands = [seq_hyp("aa"), seq_hyp("ba"), seq_hyp("b")]
    yield (lambda: EnumSolver(space, cands, 2, choice="max"),
           [seq_hyp("b"), seq_hyp("aa")])


@pytest.mark.parametrize("strategy", ["pfs-e", "pfs-ec"])
def test_pfs_e_never_asks_what_it_was_told(strategy):
    # a hypothesis that an earlier test returned as a candidate is stored
    # without a candidacy test, and the diagnosis stays exact
    untested = 0
    for make, expected in pfs_e_cases():
        recording = Recording(make())
        got = run_strategy(strategy, recording, recording.space)
        assert got.minimal_candidates == expected
        returned, asked = set(), set()
        for request, outcome in recording.log:
            props = request.props
            if props and props[0].kind == DESC and props == \
                    question_candidate(props[0].anchor, recording.space):
                h = props[0].anchor
                assert h not in returned, h.canon()
                asked.add(h)
            if outcome.is_candidate:
                returned.add(outcome.candidate)
        untested += len(set(expected) - asked)
    assert untested  # some candidate was stored without a candidacy test


# the fixture circuits, and the alarm model on SHS and MHS
CUBE_CASES = ("inv3.ckt", "and1.ckt", "adder_slice.ckt", SHS, MHS)


def cube_solver(case):
    """A factory of fresh solvers for one of ``CUBE_CASES``."""
    if case.endswith(".ckt"):
        circuit, obs = parse_circuit((CIRCUITS / case).read_text())
        return lambda: CircuitSolver(circuit, obs)
    model = parse_model(ALARMS)
    return lambda: SatSolver(model, ALARM_OBS, model.space(case),
                             ALARM_PARAMS)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_candidacy_cube_agrees_with_activation_literals(data):
    make = cube_solver(data.draw(st.sampled_from(CUBE_CASES)))
    live, guarded = make(), make()
    guarded.cube = lambda props: None    # every request takes activations
    space = live.space
    top = 1 if space.kind == SHS else 2
    hyps = st.lists(st.integers(0, top), min_size=len(space.faults),
                    max_size=len(space.faults)).map(
        lambda counts: multi_hyp(zip(space.faults, counts))
        if space.kind == MHS else
        set_hyp(f for f, n in zip(space.faults, counts) if n))
    for h in data.draw(st.lists(hyps, min_size=1, max_size=6)):
        request = TestRequest(question_candidate(h, space), space)
        acts, clauses = len(live._acts), len(live.cnf.clauses)
        got, want = live.solve(request), guarded.solve(request)
        assert got.is_candidate == want.is_candidate, h
        if isinstance(live, CircuitSolver):
            # no activation literal and no clause
            assert (len(live._acts), len(live.cnf.clauses)) == (acts, clauses)
        else:
            # DES candidacy keeps its activation literals
            assert live.cube(request.props) is None
            assert set(request.props) <= set(live._acts)
        if got.is_candidate:
            assert got.candidate == h
        else:
            assert got.conflict == tuple(
                p for p in request.props if p in got.conflict)
            assert make().check_conflict(got.conflict), got.conflict
        # a request of another shape keeps its activation literals
        g = data.draw(hyps)
        if g not in children(h, space):
            props = (Property(DESC, h), Property(NEG_DESC, g))
            assert live.cube(props) is None
            out = live.solve(TestRequest(props, space))
            assert set(props) <= set(live._acts)
            assert out.is_candidate == guarded.solve(
                TestRequest(props, space)).is_candidate
