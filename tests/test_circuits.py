import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from diagfp.circuits import (Circuit, CircuitSolver, Gate, PinObservation,
                             brute_force_diagnosis, encode_circuit,
                             parse_circuit)
from diagfp.contract import TestRequest
from diagfp.errors import BudgetExhausted, ModelFormatError
from diagfp.hypothesis import leq, lt, set_hyp
from diagfp.properties import member, question_candidate, question_coverage
from diagfp.satbackend import Cnf
from diagfp.satcore import MiniSolver
from diagfp.strategies import run_pfs, run_strategy, STRATEGIES

from test_strategies import EnumSolver

FIXTURES = Path(__file__).parent / "fixtures" / "circuits"


def load(name):
    return parse_circuit((FIXTURES / name).read_text())


def test_parse_inverter_chain():
    circuit, obs = load("inv3.ckt")
    assert len(circuit.gates) == 3
    assert circuit.inputs == ("a",)
    assert dict(obs.assignments) == {"a": False, "d": False}


def test_parse_rejects_cycle():
    with pytest.raises(ModelFormatError):
        parse_circuit("gate g1 buf x y\ngate g2 buf y x\n")
    # g0 feeds the cycle x -> y -> z -> x but is not on it
    with pytest.raises(ModelFormatError, match="cyclic") as err:
        parse_circuit("input a\ngate g0 buf b a\ngate g1 and x b z\n"
                      "gate g2 buf y x\ngate g3 not z y\n")
    assert "'g1', 'g2', 'g3'" in str(err.value)
    assert "g0" not in str(err.value)


def test_parse_rejects_double_driver():
    with pytest.raises(ModelFormatError):
        parse_circuit("input a\ngate g1 buf x a\ngate g2 buf x a\n")


def test_parse_rejects_pin_observed_with_both_values():
    text = "input x\noutput y\ngate g buf y x\nobs x 0\nobs y 1\nobs x 1\n"
    with pytest.raises(ModelFormatError, match="both 0 and 1") as err:
        parse_circuit(text)
    assert err.value.line == 6
    # the same value twice is no contradiction
    _, obs = parse_circuit(text.replace("obs x 1", "obs x 0"))
    assert dict(obs.assignments) == {"x": False, "y": True}


def test_parse_reports_the_line_of_a_pin_outside_the_circuit():
    with pytest.raises(ModelFormatError, match="signal z not in circuit") \
            as err:
        parse_circuit("input a\noutput b\ngate g buf b a\nobs z 1\n")
    assert err.value.line == 4


@pytest.mark.parametrize("pins,message", [
    ((("x", False), ("x", True)), "both 0 and 1"),
    ((("x", False), ("q", True)), "signal q not in circuit"),
])
def test_solvers_reject_bad_pins_built_through_the_api(pins, message):
    circuit, _ = parse_circuit("input x\noutput y\ngate g buf y x\n")
    obs = PinObservation(pins)
    with pytest.raises(ModelFormatError, match=message):
        CircuitSolver(circuit, obs)
    with pytest.raises(ModelFormatError, match=message):
        brute_force_diagnosis(circuit, obs)


@pytest.mark.parametrize("ch", list(",:[]{}"))
def test_parse_rejects_gate_names_that_break_canon(ch):
    text = f"input x\noutput y\ngate a{ch}b buf y x\nobs x 0\n"
    with pytest.raises(ModelFormatError) as err:
        parse_circuit(text)
    assert err.value.line == 3


def test_single_and_gate_semantics():
    cnf = Cnf()
    circ = Circuit((Gate("A", "and", "o", ("i1", "i2")),), ("i1", "i2"), ("o",))
    encode_circuit(circ.validate(), cnf)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    healthy = [-cnf.var(("ab", "A")), cnf.var(("sig", "i1")),
               cnf.var(("sig", "i2"))]
    assert kernel.solve(healthy + [cnf.var(("sig", "o"))])
    assert not kernel.solve(healthy + [-cnf.var(("sig", "o"))])


def test_abnormal_gate_is_unconstrained():
    cnf = Cnf()
    circ = Circuit((Gate("N", "not", "o", ("i",)),), ("i",), ("o",)).validate()
    encode_circuit(circ, cnf)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    ab = cnf.var(("ab", "N"))
    i, o = cnf.var(("sig", "i")), cnf.var(("sig", "o"))
    assert kernel.solve([ab, i, o])
    assert kernel.solve([ab, i, -o])


def test_inverter_chain_gate_clause_count():
    circuit, _ = load("inv3.ckt")
    cnf = Cnf()
    encode_circuit(circuit, cnf)
    assert sum(1 for key in cnf.index if key[0] == "ab") == 3
    assert len(cnf.clauses) == 6  # two clauses per inverter


def test_two_inverter_chain_consistent_and_faulty():
    text = ("input a\noutput c\ngate inv1 not b a\ngate inv2 not c b\n"
            "obs a 0\nobs c 0\n")
    circuit, obs = parse_circuit(text)
    space = circuit.space()
    solver = CircuitSolver(circuit, obs)
    out = solver.solve(TestRequest(question_candidate(space.h0, space), space))
    assert out.is_candidate  # double inversion: 0 -> 0 is consistent

    faulty = parse_circuit(text.replace("obs c 0", "obs c 1"))
    solver = CircuitSolver(*faulty)
    got = run_pfs(solver, space, "ec")
    assert got.minimal_candidates == [set_hyp(["inv1"]), set_hyp(["inv2"])]


def test_single_and_diagnosis():
    circuit, obs = load("and1.ckt")
    space = circuit.space()
    got = run_pfs(CircuitSolver(circuit, obs), space, "ec")
    assert got.minimal_candidates == [set_hyp(["A"])]
    assert brute_force_diagnosis(circuit, obs) == [set_hyp(["A"])]


def test_h0_candidate_iff_all_healthy_consistent():
    circuit, obs = load("inv3.ckt")
    space = circuit.space()
    out = CircuitSolver(circuit, obs).solve(
        TestRequest(question_candidate(space.h0, space), space))
    # chain of three inversions maps 0 to 1, but 0 is observed
    assert not out.is_candidate
    assert brute_force_diagnosis(circuit, obs) == [
        set_hyp(["inv1"]), set_hyp(["inv2"]), set_hyp(["inv3"])]


SMALL = ["inv3.ckt", "and1.ckt", "adder_slice.ckt"]


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_engine_equals_brute_force(name, strategy):
    circuit, obs = load(name)
    space = circuit.space()
    expected = brute_force_diagnosis(circuit, obs)
    got = run_strategy(strategy, CircuitSolver(circuit, obs), space)
    assert got.minimal_candidates == expected


def test_conflicts_check_out():
    circuit, obs = load("inv3.ckt")
    space = circuit.space()
    solver = CircuitSolver(circuit, obs)
    out = solver.solve(TestRequest(question_candidate(space.h0, space), space))
    assert not out.is_candidate
    assert set(out.conflict) <= set(question_candidate(space.h0, space))
    assert solver.check_conflict(out.conflict)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_properties_with_equal_canon_text_stay_apart(strategy):
    # {a,b} and {"a,b"} render alike.  The parser rejects such names, and a
    # circuit built directly fails where its space is made, so no strategy
    # meets two properties with one text.
    def build(third):
        return Circuit((Gate("a", "buf", "y", ("x",)),
                        Gate("b", "buf", "z", ("x",)),
                        Gate(third, "buf", "w", ("x",))),
                       ("x",), ("y", "z", "w")).validate()

    obs = PinObservation((("x", False), ("y", True), ("z", True),
                          ("w", False)))
    assert set_hyp(["a", "b"]).canon() == set_hyp(["a,b"]).canon()
    with pytest.raises(ModelFormatError):
        run_strategy(strategy, CircuitSolver(build("a,b"), obs),
                     build("a,b").space())
    # the legal name nearest to it: {a,b} and {ab} stay apart
    circuit = build("ab")
    got = run_strategy(strategy, CircuitSolver(circuit, obs), circuit.space())
    assert got.minimal_candidates == brute_force_diagnosis(circuit, obs)
    assert got.minimal_candidates == [set_hyp(["a", "b"])]


class _Replay:
    """Answers a strategy's tests from a recorded run of the same strategy:
    a run under a test cap asks exactly the first tests of the full run."""

    def __init__(self, solver):
        self.space, self.solver, self.log = solver.space, solver, []
        self.tests = 0

    def solve(self, request):
        i = self.tests
        self.tests += 1
        if i == len(self.log):
            self.log.append((request, self.solver.solve(request)))
        assert self.log[i][0] == request
        return self.log[i][1]


def test_budget_partials_by_strategy():
    # Every circuit answer is a minimal candidate of the requested set
    # (CircuitSolver decides its -ab literals first), so the partials of
    # PLS, PLS+r and PFS are all subsets of the minimal diagnosis here.  A
    # PLS partial need not be minimal in general: PLS learns minimality only
    # when its coverage question fails, so a solver that answers with its
    # largest candidate leaves non-minimal candidates in it.
    circuit, obs = load("adder3_flip.ckt")
    space = circuit.space()
    # brute_force_diagnosis gives this too, but takes over a minute
    diagnosis = {set_hyp(c.split()) for c in (
        "g12", "g13", "g14", "g10 g7", "g10 g8", "g10 g9",
        "g10 g2 g5", "g10 g3 g5", "g10 g4 g5", "g0 g1 g10 g5")}
    for strategy in ("pls", "pls-r", "pfs-ec"):
        replay = _Replay(CircuitSolver(circuit, obs))
        assert set(run_strategy(strategy, replay, space).minimal_candidates) \
            == diagnosis
        for cap in range(1, 121):
            replay.tests = 0
            try:
                run_strategy(strategy, replay, space, iteration_cap=cap)
                continue
            except BudgetExhausted as exc:
                partial = exc.partial.minimal_candidates
            assert set(partial) <= diagnosis, (strategy, cap)
    circuit, obs = load("inv3.ckt")
    space = circuit.space()
    diagnosis = brute_force_diagnosis(circuit, obs)
    candidates = [h for h in space.enumerate(0)
                  if any(leq(d, h, space) for d in diagnosis)]
    seen_non_minimal = False
    for cap in range(1, 6):
        with pytest.raises(BudgetExhausted) as exc:
            run_strategy("pls", EnumSolver(space, candidates, choice="max"),
                         space, iteration_cap=cap)
        partial = set(exc.value.partial.minimal_candidates)
        assert partial <= set(candidates)
        seen_non_minimal |= not partial <= set(diagnosis)
    assert seen_non_minimal


ADDER8 = "adder8_flip2.ckt"
# pls at the parent of the change that made circuit answers minimal
ADDER8_DIAGNOSIS = json.loads(
    (FIXTURES / "adder8_flip2.json").read_text())["diagnosis"]


def test_pls_on_the_8_bit_adder_tests_each_candidate_once():
    # 80 tests: one per minimal candidate, and the coverage test that fails
    circuit, obs = load(ADDER8)
    got = run_strategy("pls", CircuitSolver(circuit, obs), circuit.space())
    assert got.canon() == ADDER8_DIAGNOSIS
    assert got.stats["tests"] == len(ADDER8_DIAGNOSIS) + 1


@pytest.mark.parametrize("strategy", ["pls-r", "pfs-ec"])
def test_strategies_agree_on_the_8_bit_adder(strategy):
    circuit, obs = load(ADDER8)
    got = run_strategy(strategy, CircuitSolver(circuit, obs), circuit.space())
    assert got.canon() == ADDER8_DIAGNOSIS


@lru_cache(maxsize=None)
def reference_diagnosis(name):
    """``brute_force_diagnosis`` of a fixture, rendered by ``canon()``; the
    8-bit adder's 2**40 health assignments are out of its reach, so that
    fixture's recorded diagnosis stands in."""
    if name == ADDER8:
        return ADDER8_DIAGNOSIS
    return [h.canon() for h in brute_force_diagnosis(*load(name))]


# with test_engine_equals_brute_force, pfs-e and pfs-ec meet every
# committed fixture
@pytest.mark.parametrize("strategy", ["pfs-e", "pfs-ec"])
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.ckt")
                                        if p.name not in SMALL))
def test_pfs_e_variants_equal_brute_force_on_the_larger_fixtures(name,
                                                                 strategy):
    circuit, obs = load(name)
    got = run_strategy(strategy, CircuitSolver(circuit, obs), circuit.space())
    assert got.canon() == reference_diagnosis(name)


@pytest.mark.parametrize("name", ["inv3.ckt", "and1.ckt", "adder_slice.ckt"])
def test_coverage_answers_are_minimal_candidates(name):
    # random coverage questions to one live solver: no strict subset of an
    # answer is a candidate inside the question (the weak-fault candidates
    # are the supersets of the diagnosis).  Before each, a candidacy test of
    # a random hypothesis leaves the saved phases of its gates abnormal.
    circuit, obs = load(name)
    space = circuit.space()
    diagnosis = brute_force_diagnosis(circuit, obs)
    universe = space.enumerate(0)
    solver = CircuitSolver(circuit, obs)
    rng = random.Random(name)
    answers = 0
    for _ in range(30):
        solver.solve(TestRequest(
            question_candidate(rng.choice(universe), space), space))
        props = question_coverage(
            rng.sample(universe, rng.randint(0, len(universe) // 2)), space)
        out = solver.solve(TestRequest(props, space))
        if not out.is_candidate:
            continue
        answers += 1
        answer = out.candidate
        assert not any(lt(h, answer, space) and member(h, props, space)
                       and any(leq(d, h, space) for d in diagnosis)
                       for h in universe), (props, answer)
    assert answers
