import itertools
import random

import pytest

from diagfp.satcore import KERNEL
from diagfp.satcore.pysolver import MiniSolver as PySolver

try:
    from diagfp.satcore._ckernel import MiniSolver as CSolver
    BACKENDS = [PySolver, CSolver]
except ImportError:
    CSolver = None
    BACKENDS = [PySolver]


def brute_force_sat(nvars, clauses):
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for cl in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            return True
    return False


def random_cnf(rng, nvars, nclauses, width=3):
    clauses = []
    for _ in range(nclauses):
        k = rng.randint(1, width)
        vs = rng.sample(range(1, nvars + 1), min(k, nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def selector_cnf(rng):
    """Random CNF over base variables 1..n plus selectors n+1..n+k that,
    like activation literals, occur only negatively (as clause guards)."""
    n = rng.randint(1, 8)
    k = rng.randint(1, 4)
    clauses = random_cnf(rng, n, rng.randint(1, 3 * n))
    for _ in range(rng.randint(1, 3 * k)):
        sel = rng.randint(n + 1, n + k)
        clauses.append([-sel] + random_cnf(rng, n, 1)[0])
    return n, k, clauses


@pytest.fixture(params=BACKENDS, ids=lambda b: b.__module__.rsplit(".", 1)[-1])
def solver_cls(request):
    return request.param


def test_trivial_cases(solver_cls):
    s = solver_cls()
    assert s.solve()
    s = solver_cls()
    s.add_clause([1])
    s.add_clause([-1])
    assert not s.solve()
    s = solver_cls()
    assert not s.add_clause([]) or not s.solve()


def test_unit_propagation_chain(solver_cls):
    s = solver_cls()
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    assert s.solve()
    assert s.value(1) and s.value(2) and s.value(3)


def test_model_satisfies_all_clauses(solver_cls):
    rng = random.Random(0)
    for round_ in range(150):
        nvars = rng.randint(1, 12)
        clauses = random_cnf(rng, nvars, rng.randint(1, 4 * nvars))
        s = solver_cls()
        for cl in clauses:
            s.add_clause(cl)
        if s.solve():
            for cl in clauses:
                assert any(s.value(abs(l)) == (l > 0) for l in cl), \
                    (round_, clauses, cl)


def test_agrees_with_brute_force(solver_cls):
    rng = random.Random(1)
    for round_ in range(200):
        nvars = rng.randint(1, 10)
        clauses = random_cnf(rng, nvars, rng.randint(1, 5 * nvars))
        s = solver_cls()
        ok = True
        for cl in clauses:
            ok = s.add_clause(cl) and ok
        got = s.solve() if ok else False
        assert got == brute_force_sat(nvars, clauses), (round_, clauses)


def test_assumptions_flip_result(solver_cls):
    s = solver_cls()
    s.add_clause([1, 2])
    assert s.solve([-1, -2]) is False
    assert sorted(map(abs, s.failed_assumptions())) in ([1], [2], [1, 2])
    assert s.solve([-1]) is True
    assert s.value(2) is True
    assert s.solve([1, 2]) is True


def test_failed_assumptions_are_sound(solver_cls):
    rng = random.Random(7)
    rounds = 0
    while rounds < 120:
        nvars = rng.randint(3, 10)
        clauses = random_cnf(rng, nvars, rng.randint(2, 4 * nvars))
        k = rng.randint(1, min(4, nvars))
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nvars + 1), k)]
        s = solver_cls()
        ok = True
        for cl in clauses:
            ok = s.add_clause(cl) and ok
        if not ok:
            continue
        if s.solve(assumptions):
            for a in assumptions:
                assert s.value(abs(a)) == (a > 0)
        else:
            failed = s.failed_assumptions()
            assert set(failed) <= set(assumptions)
            s2 = solver_cls()
            for cl in clauses:
                s2.add_clause(cl)
            assert s2.solve(failed) is False
        rounds += 1


def test_core_is_selective_when_possible(solver_cls):
    # x1 is forced true; assumption -x1 must be in any core, x2 need not be
    s = solver_cls()
    s.add_clause([1])
    assert s.solve([2, -1]) is False
    assert -1 in s.failed_assumptions()


def test_resolve_after_unsat(solver_cls):
    s = solver_cls()
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    assert not s.solve([-2])
    assert s.solve([])
    assert s.value(2) is True


def test_hard_pigeonhole_unsat(solver_cls):
    # 4 pigeons, 3 holes: var p*3+h+1
    def var(p, h):
        return p * 3 + h + 1
    s = solver_cls()
    for p in range(4):
        s.add_clause([var(p, h) for h in range(3)])
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                s.add_clause([-var(p1, h), -var(p2, h)])
    assert s.solve() is False


def test_non_decision_selectors_stay_sound(solver_cls):
    # one live solver per CNF, several solves under selector assumptions,
    # as a test solver runs them; non-decision selectors may stay unassigned
    rng = random.Random(11)
    for round_ in range(150):
        n, k, clauses = selector_cnf(rng)
        s = solver_cls()
        s.ensure_vars(n + k)
        non_decision = {v for v in range(n + 1, n + k + 1)
                        if rng.random() < 0.7}
        for v in non_decision:
            s.set_decision_var(v, False)
        ok = s.add_clauses(clauses)
        for _ in range(4):
            assumptions = [v for v in range(n + 1, n + k + 1)
                           if rng.random() < 0.5]
            if rng.random() < 0.5:
                b = rng.randint(1, n)
                assumptions.append(b if rng.random() < 0.5 else -b)
            expect = brute_force_sat(
                n + k, clauses + [[a] for a in assumptions])
            got = s.solve(assumptions) if ok else False
            assert got == expect, (round_, clauses, assumptions)
            if got:
                for a in assumptions:
                    assert s.value(abs(a)) == (a > 0)
                model = [s.value(v) for v in range(n + k + 1)]
                assert all(model[v] is not None
                           for v in range(1, n + k + 1)
                           if v not in non_decision)
                extended = [bool(x) for x in model]
                assert extended == s.model()
                for cl in clauses:
                    assert any(extended[abs(l)] == (l > 0) for l in cl), \
                        (round_, clauses, cl)
            elif ok:
                failed = s.failed_assumptions()
                assert set(failed) <= set(assumptions)
                fresh = solver_cls()
                fresh.add_clauses(clauses)
                assert fresh.solve(failed) is False


def test_non_decision_var_is_branched_on_again(solver_cls):
    s = solver_cls()
    s.ensure_vars(2)
    s.add_clause([2])
    s.set_decision_var(1, False)
    assert s.solve()
    assert s.value(1) is None and s.decisions == 0
    assert s.solve()  # popped and dropped by the first solve; still off
    assert s.value(1) is None and s.decisions == 0
    s.set_decision_var(1, True)
    assert s.solve()
    assert s.value(1) is not None and s.decisions == 1
    with pytest.raises(IndexError):
        s.set_decision_var(3, False)


@pytest.mark.skipif(CSolver is None, reason="compiled kernel unavailable")
def test_backends_agree():
    rng = random.Random(3)
    for _ in range(150):
        nvars = rng.randint(1, 14)
        clauses = random_cnf(rng, nvars, rng.randint(1, 4 * nvars))
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nvars + 1),
                                           rng.randint(0, min(3, nvars)))]
        a, b = PySolver(), CSolver()
        oka = all([a.add_clause(cl) for cl in clauses])
        okb = all([b.add_clause(cl) for cl in clauses])
        assert oka == okb
        ra = a.solve(assumptions) if oka else False
        rb = b.solve(assumptions) if okb else False
        assert ra == rb
    for _ in range(150):
        n, k, clauses = selector_cnf(rng)
        a, b = PySolver(), CSolver()
        for solver in (a, b):
            solver.ensure_vars(n + k)
        for v in range(n + 1, n + k + 1):
            if rng.random() < 0.7:
                a.set_decision_var(v, False)
                b.set_decision_var(v, False)
        oka, okb = a.add_clauses(clauses), b.add_clauses(clauses)
        assert oka == okb
        for _ in range(3):
            assumptions = [v for v in range(n + 1, n + k + 1)
                           if rng.random() < 0.5]
            ra = a.solve(assumptions) if oka else False
            rb = b.solve(assumptions) if okb else False
            assert ra == rb
            assert a.decisions == b.decisions


def test_kernel_selection_reports_backend():
    assert KERNEL in ("python", "cython")
