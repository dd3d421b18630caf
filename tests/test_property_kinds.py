"""Every test solver on single-property requests of each of the four kinds.

No question builder emits neg_anc, so the strategy-level tests never send
it; these tests send desc, anc, neg_desc and neg_anc alone, in every space,
and check each answer against a reference that shares no property encoding
with the solver under test."""

import random
from itertools import product
from pathlib import Path

import pytest

from diagfp.circuits import CircuitSolver, encode_circuit, parse_circuit
from diagfp.contract import TestRequest
from diagfp.explicit import ExplicitSolver, fits_horizon, oracle_candidates
from diagfp.hypothesis import MHS, SHS, SQHS, set_hyp
from diagfp.properties import (ANC, DESC, NEG_ANC, NEG_DESC, Property,
                               exhibits)
from diagfp.satbackend import Cnf, EncodingParams, SatSolver
from diagfp.satcore import MiniSolver

from test_explicit import gen_instance

KINDS = (DESC, ANC, NEG_DESC, NEG_ANC)
CIRCUITS = Path(__file__).parent / "fixtures" / "circuits"
MAX_FAULTS = 3


def _size(h, space):
    """Fault events of ``h`` as ``oracle_candidates`` bounds them: it
    bounds MHS and SqHS hypotheses only."""
    return 0 if space.kind == SHS else sum(h.count(f) for f in space.faults)


@pytest.mark.parametrize("kind", [SHS, MHS, SQHS])
def test_des_solvers_agree_on_each_property_kind(kind):
    rng = random.Random(31)
    params = EncodingParams(steps_per_obs=3)
    seen = {k: [0, 0] for k in KINDS}   # kind -> [candidate, failed] count
    done = 0
    # at least 12 instances, and on until every kind has been seen both
    # satisfied and refuted
    while done < 12 or not all(a and b for a, b in seen.values()):
        assert done < 200, seen
        inst = gen_instance(rng)
        if inst is None:
            continue
        model, obs = inst
        space = model.space(kind)
        # complete for hypotheses with at most MAX_FAULTS fault events
        cands = oracle_candidates(model, obs, space, max_faults=MAX_FAULTS)
        # anc(h0) and neg_anc(h0) split on whether h0 is a candidate
        anchors = [space.h0] + sorted(cands, key=lambda h: h.canon())[:2] + \
            rng.sample(space.enumerate(2), 2)
        sat = SatSolver(model, obs, space, params)
        for anchor, pkind in product(anchors, KINDS):
            prop = Property(pkind, anchor)
            req = TestRequest((prop,), space)
            expected = {h for h in cands if exhibits(h, prop, space)}
            exp = ExplicitSolver(model, obs, space).solve(req)
            seen[pkind][0 if exp.is_candidate else 1] += 1
            if exp.is_candidate:
                assert exhibits(exp.candidate, prop, space)
                assert exp.candidate in expected or \
                    _size(exp.candidate, space) > MAX_FAULTS
            else:
                assert not expected, (prop, expected)
            got = sat.solve(req)
            if got.is_candidate:
                assert exp.is_candidate, prop
                assert exhibits(got.candidate, prop, space)
                assert got.candidate in expected or \
                    _size(got.candidate, space) > MAX_FAULTS
            elif exp.is_candidate:
                # the SAT encoding is complete only within its horizon
                assert not fits_horizon(model, obs, req,
                                        params.steps_per_obs), prop
            else:
                assert list(got.conflict) == [prop]
        assert not _positive_acts(sat)
        done += 1


def _positive_acts(solver) -> set:
    """Activation literals that occur positively in some clause."""
    acts = set(solver._acts.values())
    return {lit for clause in solver.cnf.clauses for lit in clause
            if lit in acts}


def _consistent(circuit, obs, hyp) -> bool:
    """Brute-force reference: gate semantics, observation and the health
    of every gate as units, in a fresh kernel."""
    cnf = Cnf()
    encode_circuit(circuit, cnf)
    for signal, value in obs.assignments:
        lit = cnf.var(("sig", signal))
        cnf.unit(lit if value else -lit)
    for g in circuit.gates:
        lit = cnf.var(("ab", g.name))
        cnf.unit(lit if g.name in hyp.data else -lit)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    return kernel.add_clauses(cnf.clauses) and kernel.solve()


@pytest.mark.parametrize("name", ["inv3.ckt", "and1.ckt", "adder_slice.ckt"])
def test_circuit_solver_matches_brute_force_on_each_property_kind(name):
    circuit, obs = parse_circuit((CIRCUITS / name).read_text())
    space = circuit.space()
    hyps = [set_hyp(n for n, bit in zip(space.faults, bits) if bit)
            for bits in product([False, True], repeat=len(space.faults))]
    cands = {h for h in hyps if _consistent(circuit, obs, h)}
    solver = CircuitSolver(circuit, obs)   # one live kernel for every test
    for anchor, pkind in product(hyps, KINDS):
        prop = Property(pkind, anchor)
        out = solver.solve(TestRequest((prop,), space))
        expected = {h for h in cands if exhibits(h, prop, space)}
        assert out.is_candidate == bool(expected), prop
        if out.is_candidate:
            assert out.candidate in expected
        else:
            assert list(out.conflict) == [prop]
    assert not _positive_acts(solver)
