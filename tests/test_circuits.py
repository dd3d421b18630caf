from pathlib import Path

import pytest

from diagfp.circuits import (Circuit, CircuitSolver, Gate, PinObservation,
                             brute_force_diagnosis, circuit_solve_test,
                             encode_circuit, parse_circuit)
from diagfp.contract import TestRequest
from diagfp.errors import ModelFormatError
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
    assert obs.as_dict() == {"a": False, "d": False}


def test_parse_rejects_cycle():
    with pytest.raises(ModelFormatError):
        parse_circuit("gate g1 buf x y\ngate g2 buf y x\n")


def test_parse_rejects_double_driver():
    with pytest.raises(ModelFormatError):
        parse_circuit("input a\ngate g1 buf x a\ngate g2 buf x a\n")


def test_single_and_gate_semantics():
    cnf = Cnf()
    circ = Circuit((Gate("A", "and", "o", ("i1", "i2")),), ("i1", "i2"), ("o",))
    encode_circuit(circ.validate(), cnf)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    healthy = [-cnf.var("ab[A]"), cnf.var("sig[i1]"), cnf.var("sig[i2]")]
    assert kernel.solve(healthy + [cnf.var("sig[o]")])
    assert not kernel.solve(healthy + [-cnf.var("sig[o]")])


def test_abnormal_gate_is_unconstrained():
    cnf = Cnf()
    circ = Circuit((Gate("N", "not", "o", ("i",)),), ("i",), ("o",)).validate()
    encode_circuit(circ, cnf)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    ab, i, o = cnf.var("ab[N]"), cnf.var("sig[i]"), cnf.var("sig[o]")
    assert kernel.solve([ab, i, o])
    assert kernel.solve([ab, i, -o])


def test_inverter_chain_gate_clause_count():
    circuit, _ = load("inv3.ckt")
    cnf = Cnf()
    encode_circuit(circuit, cnf)
    assert sum(1 for name in cnf.names if name.startswith("ab[")) == 3
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
    out = circuit_solve_test(circuit, obs,
                             TestRequest(question_candidate(space.h0, space),
                                         space))
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
    # {a,b} and {"a,b"} render alike; each needs its own activation literal
    text = ("input x\noutput y z w\ngate a buf y x\ngate b buf z x\n"
            "gate a,b buf w x\nobs x 0\nobs y 1\nobs z 1\nobs w 0\n")
    circuit, obs = parse_circuit(text)
    assert set_hyp(["a", "b"]).canon() == set_hyp(["a,b"]).canon()
    got = run_strategy(strategy, CircuitSolver(circuit, obs), circuit.space())
    assert got.minimal_candidates == brute_force_diagnosis(circuit, obs)
