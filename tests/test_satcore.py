import itertools
import json
import random
from pathlib import Path

import pytest

from diagfp.satcore import KERNEL, MiniSolver
from diagfp.satcore.pysolver import MiniSolver as PySolver

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


def check_queue(s, non_decision):
    """The decision queue's invariants: it links exactly the variables not
    in ``non_decision``, ``prev`` and ``next`` agree, stamps rise towards
    ``last``, and every variable newer than ``search`` is assigned."""
    queue, newer = [], 0
    v = s.last
    while v:
        assert s.next[v] == newer, v
        queue.append(v)
        newer, v = v, s.prev[v]
    assert sorted(queue) == [v for v in range(1, s.nvars + 1)
                             if v not in non_decision]
    assert all(s.stamp[v] == 0 for v in non_decision)
    stamps = [s.stamp[v] for v in queue]
    assert all(a > b for a, b in zip(stamps, stamps[1:])), stamps
    ahead = queue[:queue.index(s.search)] if s.search else queue
    assert all(s.value(v) is not None for v in ahead)


class CheckedSolver(MiniSolver):
    """Runs ``check_queue`` after every public call."""

    def __init__(self):
        super().__init__()
        self.non_decision = set()

    def _checked(self, result):
        check_queue(self, self.non_decision)
        return result

    def ensure_vars(self, n):
        return self._checked(super().ensure_vars(n))

    def mark_non_decision(self, v):
        super().mark_non_decision(v)
        self.non_decision.add(v)
        check_queue(self, self.non_decision)

    def prefer(self, lits):
        return self._checked(super().prefer(lits))

    def add_clauses(self, clauses):
        return self._checked(super().add_clauses(clauses))

    def solve(self, assumptions=()):
        return self._checked(super().solve(assumptions))


SEARCH_FIXTURE = Path(__file__).parent / "fixtures" / "kernel_search.json"


def search_trace(solver_cls, kind, seed):
    """Run one seeded incremental scenario and return, for each solve, the
    verdict, the failed assumptions, the cumulative conflict, decision and
    propagation counts and the model (a 0/1 string, SAT only).

    ``kind`` "cnf" grows a random CNF over three rounds; "php" guards each
    pigeon of a pigeonhole formula by a selector and solves with every
    pigeon and with all but one; "selector" loads a ``selector_cnf`` with
    some selectors non-decision, then adds guarded clauses between solves;
    "prefer" loads a random CNF near the 3-SAT threshold with non-decision
    selectors guarding some clauses, prefers a random list of literals, and
    solves under selectors and literals, adding clauses and replacing the
    preferred list between rounds.  Like the test solvers, every scenario
    declares its variables with ``ensure_vars`` before loading clauses that
    use them.
    """
    rng = random.Random(seed)
    s = solver_cls()
    trace = []

    def load(clauses):
        if rng.random() < 0.5:
            return s.add_clauses(clauses)
        return all([s.add_clause(cl) for cl in clauses])

    def solve(assumptions):
        sat = s.solve(assumptions)
        model = "".join("1" if x else "0" for x in s.model()[1:]) \
            if sat else None
        trace.append([sat, s.failed_assumptions(), s.conflicts,
                      s.decisions, s.propagations, model])

    if kind == "cnf":
        n = m = 0
        for _ in range(3):
            # each round tops the clause/variable ratio up to near the 3-SAT
            # threshold, so that solves need conflicts
            n += rng.randint(30, 50)
            s.ensure_vars(n)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1),
                                            rng.choice((3, 3, 3, 4)))]
                       for _ in range(int(rng.uniform(3.2, 4.0) * n) - m)]
            m += len(clauses)
            load(clauses)
            for _ in range(3):
                solve([v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n + 1),
                                           rng.randint(0, 6))])
    elif kind == "php":
        # one pigeon more than holes, each pigeon's clause guarded by its
        # selector: refuting every pigeon at once takes restarts
        holes = rng.randint(5, 6)
        pigeons = range(holes + 1)
        sel = holes * (holes + 1)
        s.ensure_vars(sel + holes + 1)
        clauses = [[-(sel + p + 1)] + [p * holes + h + 1 for h in range(holes)]
                   for p in pigeons]
        clauses += [[-(p * holes + h + 1), -(q * holes + h + 1)]
                    for h in range(holes) for p in pigeons for q in pigeons
                    if p < q]
        rng.shuffle(clauses)
        load(clauses)
        every = [sel + p + 1 for p in pigeons]
        for _ in range(3):
            solve(every)
            solve(rng.sample(every, holes))
    elif kind == "prefer":
        n, k = rng.randint(20, 40), rng.randint(2, 5)
        s.ensure_vars(n + k)
        for v in range(n + 1, n + k + 1):
            s.mark_non_decision(v)

        def guarded(m):
            # 3-clauses, about a third of them guarded by a selector
            return [([-rng.randint(n + 1, n + k)] if rng.random() < 0.3
                     else []) +
                    [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, n + 1), 3)]
                    for _ in range(m)]
        load(guarded(int(rng.uniform(3.6, 4.4) * n)))
        for _ in range(3):
            s.prefer(rng.choice((1, -1)) * v
                     for v in rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(2):
                solve([v for v in range(n + 1, n + k + 1)
                       if rng.random() < 0.5] +
                      [rng.choice((1, -1)) * v
                       for v in rng.sample(range(1, n + 1),
                                           rng.randint(0, 3))])
            load(guarded(rng.randint(1, 4)))
    else:
        n, k, clauses = selector_cnf(rng)
        s.ensure_vars(n + k)
        for v in range(n + 1, n + k + 1):
            if rng.random() < 0.7:
                s.mark_non_decision(v)
        load(clauses)
        for _ in range(3):
            for _ in range(2):
                solve([v for v in range(n + 1, n + k + 1)
                       if rng.random() < 0.5])
            load([[-rng.randint(n + 1, n + k)] + random_cnf(rng, n, 1)[0]
                  for _ in range(rng.randint(1, 3))])
    return trace


SEARCH_SCENARIOS = [(kind, seed)
                    for kind in ("cnf", "php", "selector", "prefer")
                    for seed in range(16 if kind != "php" else 4)]


def record_search_fixture(solver_cls):
    """The content of SEARCH_FIXTURE, as ``solver_cls`` searches."""
    return {f"{kind}-{seed}": search_trace(solver_cls, kind, seed)
            for kind, seed in SEARCH_SCENARIOS}


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


def test_clause_with_literal_zero_is_rejected(solver_cls):
    s = solver_cls()
    with pytest.raises(ValueError):
        s.add_clause([0])
    with pytest.raises(ValueError):
        s.add_clauses([[1], [2, 0, -3]])
    assert s.nvars == 0 and s.clauses == []    # nothing of the batch loaded


def test_assumption_literal_zero_is_rejected(solver_cls):
    s = solver_cls()
    s.add_clause([1])
    with pytest.raises(ValueError):
        s.solve([0])
    with pytest.raises(ValueError):
        s.solve([1, 0])
    assert s.solve([1])


def test_add_clause_creates_every_variable_it_names(solver_cls):
    # clauses dropped as tautologies or as true at root still declare their
    # variables, and so do clauses sent to a solver already UNSAT at root
    s = solver_cls()
    assert s.add_clause([1, -1, 5])
    assert s.nvars == 5 and s.value(5) is None
    assert s.add_clauses([[2], [2, 7], [-3, 3, 9]])
    assert s.nvars == 9 and s.value(9) is None
    assert s.solve()
    assert all(s.value(v) is not None for v in range(1, 10))
    assert not s.add_clause([-2])
    assert not s.add_clause([12])
    assert s.nvars == 12 and s.value(12) is None


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


def test_failed_assumptions_are_sound_on_a_live_solver(solver_cls):
    # One solver per CNF across several solves, clauses (units among them)
    # added between solves, assumptions with duplicates, complementary
    # pairs and literals false at root.
    units = []

    class UnitLogging(solver_cls):
        def _record_learnt(self, learnt):
            if len(learnt) == 1:
                units.append(learnt[0])
            super()._record_learnt(learnt)

    rng = random.Random(13)
    for round_ in range(40):
        # near the 3-SAT threshold, so that solves learn clauses
        nvars = rng.randint(30, 50)

        def three_cnf(m):
            return [[v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, nvars + 1), 3)]
                    for _ in range(m)]
        clauses = three_cnf(int(rng.uniform(3.5, 4.2) * nvars))
        s = UnitLogging()
        ok = s.add_clauses(clauses)
        for _ in range(5):
            more = three_cnf(rng.randint(1, 3))
            if rng.random() < 0.3:
                more.append([rng.choice((1, -1)) * rng.randint(1, nvars)])
            clauses += more
            ok = s.add_clauses(more) and ok
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, nvars + 1),
                                               rng.randint(1, 6))]
            if rng.random() < 0.3:
                assumptions.append(rng.choice(assumptions))
            if rng.random() < 0.2:
                assumptions.append(-rng.choice(assumptions))
            rng.shuffle(assumptions)
            if s.solve(assumptions):
                for a in assumptions:
                    assert s.value(abs(a)) == (a > 0)
                for cl in clauses:
                    assert any(s.value(abs(l)) == (l > 0) for l in cl), \
                        (round_, clauses, cl)
                continue
            failed = s.failed_assumptions()
            assert set(failed) <= set(assumptions)
            if ok:
                fresh = solver_cls()
                fresh.add_clauses(clauses)
                assert fresh.solve(failed) is False, (round_, clauses, failed)
            else:
                assert failed == []
    assert units  # learnt units did send solves back to level 0


def test_assumption_level_edge_cases(solver_cls):
    s = solver_cls()
    s.add_clauses([[-1, 2], [-1, -2], [3]])
    conflicts = s.conflicts
    # the assumptions propagate to a conflict: it counts, and the failed
    # set holds only the assumptions behind it
    assert not s.solve([4, 1, 4])
    assert s.conflicts == conflicts + 1
    assert s.failed_assumptions() == [1]
    # a complementary pair fails with both literals
    assert not s.solve([5, -4, 4])
    assert s.failed_assumptions() == [-4, 4]
    # an assumption false at root fails alone
    assert not s.solve([4, 5, -3, -5])
    assert s.failed_assumptions() == [-3]
    assert s.solve([-1, -1, 4])
    assert s.value(1) is False and s.value(4) is True


def test_solve_reads_generator_assumptions_once(solver_cls):
    s = solver_cls()
    s.add_clause([1])
    assert s.solve(x for x in [-1]) is False
    assert s.failed_assumptions() == [-1]


def test_add_clauses_reads_a_generator_once(solver_cls):
    s = solver_cls()
    assert s.add_clauses(c for c in [[1, 2]])
    assert s.nvars == 2 and s.clauses == [[2, 4]]
    assert s.add_clause(x for x in [-1])
    assert s.solve() and s.value(2) is True


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
            s.mark_non_decision(v)
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


def test_non_decision_var_is_never_branched_on(solver_cls):
    s = solver_cls()
    s.ensure_vars(2)
    s.add_clause([2])
    s.mark_non_decision(1)
    assert s.solve()
    assert s.value(1) is None and s.decisions == 0
    assert s.solve()  # off the decision queue for good
    assert s.value(1) is None and s.decisions == 0
    with pytest.raises(IndexError):
        s.mark_non_decision(3)


def test_preferred_literal_zero_is_rejected(solver_cls):
    s = solver_cls()
    s.prefer([-2])
    with pytest.raises(ValueError):
        s.prefer([1, 0])
    assert s.nvars == 2 and s.preferred == [5]    # the old list stays
    assert s.solve() and s.value(2) is False


def test_preferred_literals_are_decided_first(solver_cls):
    s = solver_cls()
    s.add_clause([1, 2, 3])
    s.prefer([-1, -2])    # x3 is implied
    assert s.solve() and [s.value(v) for v in (1, 2, 3)] == [False, False,
                                                             True]
    s.prefer([2, -1])     # x2 satisfies the clause
    assert s.solve() and s.value(2) is True and s.value(1) is False
    # a preferred literal of a non-decision variable is not decided
    s.mark_non_decision(2)
    s.add_clause([3])
    assert s.solve() and s.value(2) is None and s.value(1) is False


def test_false_preferred_literals_are_minimal():
    # Random CNFs over base variables 1..n with guarded clauses behind
    # selectors, most of them non-decision, and a random preferred list over
    # the base variables.  Each SAT solve must leave a subset-minimal set of
    # false preferred literals among all models of the clauses plus the
    # assumptions; an unassumed selector can always be false, so those
    # models are, on the base variables, the assignments that satisfy the
    # unguarded clauses, the clauses of assumed selectors and the base
    # assumptions.  The queue is checked after every call.
    rng = random.Random(21)
    solves = 0
    for round_ in range(150):
        n, k = rng.randint(1, 12), rng.randint(0, 3)
        clauses = random_cnf(rng, n, rng.randint(1, 2 * n))
        s = CheckedSolver()
        s.ensure_vars(n + k)
        for v in range(n + 1, n + k + 1):
            if rng.random() < 0.7:
                s.mark_non_decision(v)
        preferred = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
        s.prefer(preferred)

        def guarded(m):
            return [[-rng.randint(n + 1, n + k)] + cl
                    for cl in random_cnf(rng, n, m)] if k else []
        clauses += guarded(rng.randint(0, 2 * k))
        ok = s.add_clauses(clauses)
        for _ in range(4):
            assumptions = [v for v in range(n + 1, n + k + 1)
                           if rng.random() < 0.5]
            assumptions += [v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, n + 1),
                                                rng.randint(0, min(2, n)))]
            # a guarded clause starts with its negated selector
            active = [[lit for lit in cl if abs(lit) <= n]
                      for cl in clauses + [[a] for a in assumptions if a <= n]
                      if -cl[0] <= n or -cl[0] in assumptions]
            masks = [(sum(1 << (l - 1) for l in cl if l > 0),
                      sum(1 << (-l - 1) for l in cl if l < 0))
                     for cl in active]
            models = [m for m in range(1 << n)
                      if all(m & pos or ~m & neg for pos, neg in masks)]
            got = s.solve(assumptions) if ok else False
            assert got == bool(models), (round_, clauses, assumptions)
            if got:
                solves += 1

                def false_set(is_true):
                    return sum(1 << i for i, p in enumerate(preferred)
                               if is_true(abs(p)) != (p > 0))
                mine = false_set(s.value)
                assert not any(
                    f & ~mine == 0 and f != mine
                    for f in (false_set(lambda v: bool(m >> (v - 1) & 1))
                              for m in models)), (round_, clauses, assumptions)
            more = random_cnf(rng, n, rng.randint(0, 1)) + guarded(
                rng.randint(0, 2))
            clauses += more
            ok = s.add_clauses(more) and ok
    assert solves > 200


def test_queue_stays_intact_through_the_search_scenarios():
    for kind, seed in SEARCH_SCENARIOS:
        search_trace(CheckedSolver, kind, seed)


def test_search_is_unchanged(solver_cls):
    # The fixture was last recorded when decisions moved from the activity
    # heap to preferred literals and the VMTF queue; any change to clause
    # literal order, watch-list order, queue order, preferred decisions or
    # assumption handling shows as a different count, core or model.
    expected = json.loads(SEARCH_FIXTURE.read_text())
    got = record_search_fixture(solver_cls)
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name


def test_kernel_selection_reports_backend():
    assert KERNEL == "python" and MiniSolver is PySolver


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_satcore.py rewrites SEARCH_FIXTURE
    # from the pure kernel.  Do so only in a change that means to alter the
    # search, and say so.
    traces = record_search_fixture(PySolver)
    SEARCH_FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(trace)}"
        for name, trace in traces.items()) + "\n}\n")
