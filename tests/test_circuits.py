from pathlib import Path

import pytest

from diagfp.circuits import (Circuit, CircuitSolver, Gate, PinObservation,
                             brute_force_diagnosis, encode_circuit,
                             parse_circuit)
from diagfp.contract import TestRequest
from diagfp.errors import BudgetExhausted, ModelFormatError
from diagfp.hypothesis import set_hyp
from diagfp.properties import question_candidate
from diagfp.satbackend import Cnf
from diagfp.satcore import MiniSolver
from diagfp.strategies import run_pfs, run_strategy, STRATEGIES

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


@pytest.mark.parametrize("name", ["inv3.ckt", "and1.ckt", "adder_slice.ckt"])
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
    # PLS partials hold candidates that need not be minimal (cap 42 returns
    # {g10,g12} while {g12} is minimal); PLS+r and PFS partials are subsets
    # of the minimal diagnosis
    circuit, obs = load("adder3_flip.ckt")
    space = circuit.space()
    # brute_force_diagnosis gives this too, but takes over a minute
    diagnosis = {set_hyp(c.split()) for c in (
        "g12", "g13", "g14", "g10 g7", "g10 g8", "g10 g9",
        "g10 g2 g5", "g10 g3 g5", "g10 g4 g5", "g0 g1 g10 g5")}
    seen_non_minimal, checked = False, set()
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
            if strategy != "pls":
                assert set(partial) <= diagnosis, (strategy, cap)
                continue
            for hyp in set(partial) - checked:
                req = TestRequest(question_candidate(hyp, space), space)
                assert CircuitSolver(circuit, obs).solve(req).is_candidate
                checked.add(hyp)
            seen_non_minimal |= not set(partial) <= diagnosis
    assert seen_non_minimal
