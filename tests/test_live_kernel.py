"""Differential tests of the live kernel that each SAT test solver keeps
across its tests: every answer must agree with a fresh one-shot solve."""

from pathlib import Path

import pytest

from diagfp import satbackend
from diagfp.circuits import CircuitSolver, brute_force_diagnosis, parse_circuit
from diagfp.contract import TestRequest
from diagfp.desmodel import Observation, parse_model
from diagfp.explicit import ExplicitSolver, oracle_diagnose
from diagfp.hypothesis import MHS, SHS, SQHS, Space, seq_hyp
from diagfp.properties import (DESC, member, question_candidate,
                               question_coverage)
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


class RecordingSolver:
    """Passes tests to a solver and logs each request and its outcome, with
    the solver's clause count before and after the test."""

    def __init__(self, solver):
        self.solver = solver
        self.space = solver.space
        self.log = []

    def solve(self, request):
        before = len(self.solver.cnf.clauses)
        outcome = self.solver.solve(request)
        self.log.append((request, outcome, before,
                         len(self.solver.cnf.clauses)))
        return outcome


def check_run(solver, strategy, one_shot, expected):
    recording = RecordingSolver(solver)
    got = run_strategy(strategy, recording, solver.space)
    assert got.minimal_candidates == expected
    space = solver.space
    for request, outcome, _, _ in recording.log:
        fresh = one_shot(request)
        assert outcome.is_candidate == fresh.is_candidate, list(request.props)
        if outcome.is_candidate:
            assert member(outcome.candidate, request.props, space)
        else:
            # a sub-tuple of the request, in request order
            assert outcome.conflict == tuple(
                p for p in request.props if p in outcome.conflict)
            assert solver.check_conflict(outcome.conflict)
    # the live kernel must have taken new property clauses right after a
    # satisfiable test, while it still held that test's assignment
    log = recording.log
    assert any(prev[1].is_candidate and cur[3] > cur[2]
               for prev, cur in zip(log, log[1:]))


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
    for make, expected in solvers_and_diagnoses():
        solver = make()
        got = run_strategy(strategy, solver, solver.space)
        assert got.minimal_candidates == expected
        acts = set(solver._acts.values())
        assert acts
        assert not any(lit in acts for clause in solver.cnf.clauses
                       for lit in clause)


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
