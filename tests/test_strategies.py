import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp.circuits import CircuitSolver, parse_circuit
from diagfp.contract import TestOutcome, TestRequest
from diagfp.desmodel import Observation, parse_model, parse_observation
from diagfp.errors import BudgetExhausted, DiagError
from diagfp.explicit import ExplicitSolver, oracle_diagnose
from diagfp.hypothesis import (BHS, MHS, SHS, SQHS, Space, bin_hyp, children,
                               leq, lt, min_antichain, multi_hyp, order_key,
                               seq_hyp, set_hyp)
from diagfp.properties import (ANC, DESC, NEG_ANC, NEG_DESC, Property,
                               member, question_candidate, question_coverage,
                               question_minimal)
from diagfp.satbackend import EncodingParams, SatSolver
from diagfp.strategies import (STRATEGIES, conflict_successors, run_pfs,
                               run_pls, run_strategy, terminating_strategies)

from test_explicit import Recording, faulty_instances

FIXTURES = Path(__file__).parent / "fixtures"
OBS1 = Observation(("o1",))


class EnumSolver:
    """Reference solver over an explicitly enumerated candidate set."""

    def __init__(self, space, candidates, bound=3, choice="min"):
        self.space = space
        self.universe = space.enumerate(bound)
        self.candidates = set(candidates)
        self.choice = choice
        self.requests = []

    def solve(self, request):
        self.requests.append(request.props)
        matches = [h for h in self.universe
                   if h in self.candidates and
                   member(h, request.props, self.space)]
        if not matches:
            return TestOutcome.failed(request.props)
        matches.sort(key=order_key)
        picked = matches[0] if self.choice == "min" else matches[-1]
        return TestOutcome.found(picked, None)


class ShrinkingSolver(EnumSolver):
    """EnumSolver whose conflict for a failed coverage question (``neg_desc``
    properties only) is deletion-minimal: each property is dropped in turn
    while no candidate is left.  Every other conflict is the whole
    request."""

    def solve(self, request):
        outcome = super().solve(request)
        if outcome.is_candidate or any(p.kind != NEG_DESC
                                       for p in request.props):
            return outcome
        core = list(request.props)
        for p in request.props:
            rest = [q for q in core if q != p]
            if not any(h in self.candidates and member(h, rest, self.space)
                       for h in self.universe):
                core = rest
        return TestOutcome.failed(tuple(core))


class ScriptedSolver:
    """Answers every test with the same candidate, whatever it asks."""

    def __init__(self, space, answer):
        self.space = space
        self.answer = answer

    def solve(self, request):
        return TestOutcome.found(self.answer, None)


@pytest.mark.parametrize("strategy,message", [
    ("pfs", "candidacy test of {} answered with {a}"),
    ("pls", "which a found candidate covers"),
    ("pls-r", "which is not below it"),
])
def test_strategy_invariants_raise_on_wrong_answers(strategy, message):
    # the invariants are DiagErrors, so ``python -O`` keeps them
    space = Space(SHS, ("a", "b"))
    with pytest.raises(DiagError, match=message):
        run_strategy(strategy, ScriptedSolver(space, set_hyp(["a"])), space)


def test_run_strategy_rejects_unknown_names():
    space = Space(SHS, ("a",))
    for name in ("pfsx", "pfs-plain", "pfs-", "PFS"):
        with pytest.raises(DiagError, match="unknown strategy"):
            run_strategy(name, EnumSolver(space, [space.h0]), space)


# ------------------------------------------------------- conflict successors

def test_conflict_successors_example_discards_f3():
    sp = Space(SQHS, ("f1", "f2", "f3"))
    c = (Property(NEG_DESC, seq_hyp(["f1"])),
         Property(NEG_DESC, seq_hyp(["f2"])))
    got = conflict_successors(sp.h0, c, sp)
    assert set(got) == {seq_hyp(["f1"]), seq_hyp(["f2"])}


def test_conflict_successors_example_skips_depth_one():
    # conflict covering h0 and every single-fault hypothesis: nothing with
    # fewer than two faults is a candidate
    sp = Space(SQHS, ("f1", "f2", "f3"))
    two_fault = [seq_hyp([a, b]) for a in sp.faults for b in sp.faults]
    c = tuple(Property(NEG_DESC, h) for h in two_fault)
    got = conflict_successors(sp.h0, c, sp)
    assert set(got) == set(two_fault)
    assert len(got) == 9


def test_trivial_conflict_reduces_to_children():
    from diagfp.hypothesis import children
    sp = Space(SQHS, ("f1", "f2"))
    h = seq_hyp(["f2"])
    trivial = question_candidate(h, sp)
    assert conflict_successors(h, trivial, sp) == children(h, sp)


def test_conflict_successors_requires_membership():
    sp = Space(SHS, ("f1", "f2"))
    c = (Property(NEG_DESC, set_hyp(["f1"])),)
    with pytest.raises(DiagError):
        conflict_successors(set_hyp(["f1"]), c, sp)  # h exhibits desc(f1)


def test_empty_neg_desc_conflict_kills_cone():
    sp = Space(SHS, ("f1",))
    c = (Property(DESC, set_hyp([])),)
    assert conflict_successors(sp.h0, c, sp) == []


# ----------------------------------------------------------- enum harness

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_agree_on_enumerated_candidates(strategy):
    rng = random.Random(17)
    for _ in range(12):
        kind = rng.choice((SHS, MHS, SQHS))
        faults = ("a", "b")[:rng.randint(1, 2)]
        space = Space(kind, faults)
        if strategy not in terminating_strategies(space):
            continue  # no termination guarantee; covered by divergence tests
        bound = 2
        universe = space.enumerate(bound)
        # upward-closed candidate sets match the weak-fault intuition and
        # keep every strategy terminating within the enumeration bound
        seeds = [h for h in universe if rng.random() < 0.3]
        cands = {h for h in universe
                 if any(leq(s, h, space) for s in seeds)}
        expected = min_antichain(cands, space)
        solver = EnumSolver(space, cands, bound)
        got = run_strategy(strategy, solver, space, iteration_cap=2000)
        assert got.minimal_candidates == expected, (strategy, kind, seeds)


@pytest.mark.parametrize("variant", ["plain", "ec"])
def test_pfs_tests_candidacy_in_order_of_size(variant):
    # run_pfs never checks whether an open hypothesis is preferred to the
    # one it pops; that rests on these two facts
    rng = random.Random(41)
    for kind in (BHS, SHS, MHS, SQHS):
        space = Space(kind, ("a", "b"))
        universe = space.enumerate(2)
        for a in universe:
            for b in universe:
                if lt(a, b, space):
                    assert a.size() < b.size(), (a, b)
        tested = 0
        for _ in range(6):
            seeds = [h for h in universe if rng.random() < 0.3]
            cands = {h for h in universe
                     if any(leq(s, h, space) for s in seeds)}
            solver = EnumSolver(space, cands, 2)
            try:
                run_pfs(solver, space, variant, iteration_cap=200)
            except BudgetExhausted:
                pass
            sizes = [p.anchor.size() for props in solver.requests
                     for p in props if p.kind == DESC]
            assert sizes == sorted(sizes), (kind, seeds)
            tested += len(sizes)
        assert tested, kind



FAULTS = ("a", "b", "c")


def hyps(kind):
    """Hypotheses of ``Space(kind, FAULTS)`` with at most three faults."""
    faults = st.sampled_from(FAULTS)
    if kind == SHS:
        return st.sets(faults).map(set_hyp)
    if kind == MHS:
        return st.lists(faults, max_size=3).map(
            lambda fs: multi_hyp({f: fs.count(f) for f in fs}))
    if kind == SQHS:
        return st.lists(faults, max_size=3).map(seq_hyp)
    return st.booleans().map(bin_hyp)


@pytest.mark.parametrize("kind", [BHS, SHS, MHS, SQHS])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_pfs_successors_are_above_the_refuted_hypothesis(kind, data):
    # run_pfs keeps result and open on one key-ordered list and pops the
    # entry after the result; that rests on every hypothesis it pushes
    # having an order_key strictly above that of the one it refuted
    space = Space(kind, FAULTS)
    h = data.draw(hyps(kind), "h")
    props = data.draw(st.lists(st.builds(
        Property, st.sampled_from((DESC, ANC, NEG_DESC, NEG_ANC)),
        hyps(kind)), max_size=4), "props")
    conflict = tuple(p for p in props if member(h, (p,), space))
    for s in children(h, space) + conflict_successors(h, conflict, space):
        assert order_key(s) > order_key(h), (h, s)

def test_plain_variants_hit_budget_on_empty_infinite_diagnosis():
    space = Space(SQHS, ("a", "b"))
    for strategy in ("pfs", "pfs-c"):
        solver = EnumSolver(space, set(), 2)
        with pytest.raises(BudgetExhausted) as err:
            run_strategy(strategy, solver, space, iteration_cap=40)
        assert err.value.partial.minimal_candidates == []


def test_pls_minimal_vs_adversarial_counterexamples():
    space = Space(SHS, ("f1", "f2", "f3", "f4"))
    cands = set(space.enumerate(0))  # every hypothesis is a candidate
    fast = EnumSolver(space, cands, 0, choice="min")
    got = run_pls(fast, space)
    assert got.minimal_candidates == [space.h0]
    assert len(fast.requests) <= len(space.faults) + 1

    slow = EnumSolver(space, cands, 0, choice="max")
    got = run_pls(slow, space)
    assert got.minimal_candidates == [space.h0]
    assert len(slow.requests) == len(cands) + 1  # enumerates the whole lattice


def test_pls_r_refines_spurious_fault():
    model = parse_model(
        "component c\nstates q0 q1\ninit q0\ntrans q0 f q1\n"
        "trans q1 g q1\ntrans q1 o1 q1\nend\nobservable o1\nfaults f g\n")
    space = model.space(SHS)
    assert oracle_diagnose(model, OBS1, space) == [set_hyp(["f"])]

    class MaxFirst(ExplicitSolver):
        # force the coverage counterexample to be the non-minimal {f, g}
        def solve(self, request):
            from diagfp.properties import question_coverage
            if request.props == question_coverage([], self.space):
                return TestOutcome.found(set_hyp(["f", "g"]), ("f", "g", "o1"))
            return super().solve(request)

    solver = MaxFirst(model, OBS1, space)
    got = run_strategy("pls-r", solver, space)
    assert got.minimal_candidates == [set_hyp(["f"])]


def test_pls_r_first_candidate_refines_to_h0():
    model = parse_model(
        "component c\nstates q0 q1\ninit q0\ntrans q0 f q0\n"
        "trans q0 o1 q1\nend\nobservable o1\nfaults f\n")
    space = model.space(SHS)
    solver = ExplicitSolver(model, OBS1, space)
    got = run_strategy("pls-r", solver, space)
    assert got.minimal_candidates == [space.h0]


class PlsQuestions:
    """Passes a PLS run's tests to ``solver`` and checks each against the
    reference builders: every coverage request is :func:`question_coverage`
    of the answers stored so far.  Under PLS+r (``refine``) an answer is
    followed by minimality requests, and the last candidate they return is
    stored once one fails."""

    def __init__(self, solver, space, refine):
        self.solver, self.space, self.refine = solver, space, refine
        self.stored, self.pending = [], None
        self.refined = 0

    def solve(self, request):
        outcome = self.solver.solve(request)
        if self.pending is None:
            assert request.props == question_coverage(self.stored, self.space)
            if outcome.is_candidate and self.refine:
                self.pending = outcome.candidate
            elif outcome.is_candidate:
                self.stored.append(outcome.candidate)
            return outcome
        assert request.props == question_minimal(self.pending, self.space)
        if outcome.is_candidate:
            self.pending = outcome.candidate
            self.refined += 1
        else:
            self.stored.append(self.pending)
            self.pending = None
        return outcome


@pytest.mark.parametrize("strategy", ["pls", "pls-r"])
def test_pls_asks_the_coverage_question_of_its_answers(strategy):
    # PLS keeps its coverage question up to date as it stores answers; an
    # EnumSolver that answers with the largest candidate makes non-minimal
    # answers occur, which PLS stores and PLS+r refines first
    rng = random.Random(53)
    cases = []
    for kind in (SHS, MHS, SQHS):
        space = Space(kind, ("a", "b"))
        universe = space.enumerate(2)
        for _ in range(4):
            seeds = [h for h in universe if rng.random() < 0.3]
            cands = {h for h in universe
                     if any(leq(s, h, space) for s in seeds)}
            cases.append((space, EnumSolver(space, cands, 2, choice="max")))
    circuit, obs = parse_circuit(
        (FIXTURES / "circuits" / "adder3_flip.ckt").read_text())
    cases.append((circuit.space(), CircuitSolver(circuit, obs)))
    non_minimal = 0
    for space, solver in cases:
        checked = PlsQuestions(solver, space, strategy == "pls-r")
        got = run_strategy(strategy, checked, space, iteration_cap=2000)
        assert checked.pending is None
        assert got.minimal_candidates == min_antichain(checked.stored, space)
        non_minimal += checked.refined + len(checked.stored) - \
            len(got.minimal_candidates)
    assert non_minimal, strategy


# ------------------------------------------------------------ toy integration

@pytest.fixture
def oneshot():
    return parse_model((FIXTURES / "oneshot.des").read_text())


def solvers_for(model, obs, space):
    return [ExplicitSolver(model, obs, space),
            SatSolver(model, obs, space, EncodingParams(steps_per_obs=2))]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_oneshot_all_strategies_all_solvers(oneshot, strategy):
    space = oneshot.space(SHS)
    for solver in solvers_for(oneshot, OBS1, space):
        got = run_strategy(strategy, solver, space)
        assert got.minimal_candidates == [set_hyp(["f"])], \
            (strategy, solver.name)


def test_oneshot_pfs_needs_exactly_two_candidate_tests(oneshot):
    space = oneshot.space(SHS)
    for variant in ("plain", "c"):
        got = run_pfs(ExplicitSolver(oneshot, OBS1, space), space, variant)
        assert got.stats["tests"] == 2


def test_empty_diagnosis(oneshot):
    space = oneshot.space(SHS)
    impossible = Observation(("o1", "o1"))
    for solver in [ExplicitSolver(oneshot, impossible, space),
                   SatSolver(oneshot, impossible, space, EncodingParams(2))]:
        for strategy in STRATEGIES:
            got = run_strategy(strategy, solver, space)
            assert got.minimal_candidates == []


# ------------------------------------------- coverage answers already held

def neg_desc(*faults):
    return Property(NEG_DESC, set_hyp(faults))


def upward(space, *minimal):
    """The SHS candidates above the given fault sets."""
    return {h for h in space.enumerate(0)
            if any(set(m) <= h.data for m in minimal)}


def test_pfs_ec_drops_a_hypothesis_whose_question_holds_a_coverage_conflict():
    # Candidates above {a} or {b}.  The candidacy conflict of {} is the
    # whole request, so {a}, {b}, {c} and {d} are pushed.  {c}'s coverage
    # question fails with the core (neg_desc{a}, neg_desc{b}); {d}'s
    # question holds both, so {d} is dropped with no request.
    space = Space(SHS, ("a", "b", "c", "d"))
    cands = upward(space, "a", "b")
    recording = Recording(ShrinkingSolver(space, cands, 0))
    got = run_pfs(recording, space, "ec")
    assert got.canon() == ["{a}", "{b}"]
    assert [request.props for request, _ in recording.log] == [
        (),
        question_candidate(space.h0, space),
        (neg_desc("a"), neg_desc("c"), neg_desc("d")),
        (neg_desc("a"), neg_desc("b"), neg_desc("d")),
    ]
    assert recording.log[-1][1].conflict == (neg_desc("a"), neg_desc("b"))
    # the question {d} would have asked has no candidate
    unsent = TestRequest((neg_desc("a"), neg_desc("b")), space)
    assert not EnumSolver(space, cands, 0).solve(unsent).is_candidate
    assert got.stats["cache_hits"] == 1


@pytest.mark.parametrize("variant", ["e", "ec"])
def test_pfs_e_answers_a_coverage_question_by_the_parents_witness(variant):
    # Candidates above {a,b}.  {}'s coverage question returns {a,b}, and
    # its candidacy test fails with the whole request: {a}, {b} and {c} are
    # pushed, {a} and {b} with the hint {a,b}.  {a}'s hint is void, since
    # {b} <= {a,b} is held.  When {b} is popped only {c} is held, and {c} is
    # not <= {a,b}: {a,b} meets {b}'s question, so its candidacy test
    # follows with no coverage request.
    space = Space(SHS, ("a", "b", "c"))
    cands = upward(space, "ab")
    recording = Recording(EnumSolver(space, cands, 0))
    got = run_pfs(recording, space, variant)
    assert got.canon() == ["{a,b}"]
    assert [request.props for request, _ in recording.log] == [
        (),
        question_candidate(space.h0, space),
        (neg_desc("b"), neg_desc("c")),
        question_candidate(set_hyp(["b"]), space),
        (neg_desc("a", "b"), neg_desc("b", "c")),
        (neg_desc("a", "b"),),
    ]
    # the question {b} would have asked: the solver answers it with {a,b}
    unsent = TestRequest((neg_desc("c"),), space)
    assert EnumSolver(space, cands, 0).solve(unsent).candidate \
        == set_hyp(["a", "b"])
    assert got.stats["cache_hits"] == 1


def test_cache_hits_count_both_coverage_shortcuts():
    # As above, with coverage cores: {a}'s question fails with the core
    # (neg_desc{b}), {b} takes its parent's witness {a,b}, {c}'s question
    # fails with the core (neg_desc{a,b}), and {b,c}'s question holds it.
    space = Space(SHS, ("a", "b", "c"))
    recording = Recording(ShrinkingSolver(space, upward(space, "ab"), 0))
    got = run_pfs(recording, space, "ec")
    assert got.canon() == ["{a,b}"]
    assert [request.props for request, _ in recording.log] == [
        (),
        question_candidate(space.h0, space),
        (neg_desc("b"), neg_desc("c")),
        question_candidate(set_hyp(["b"]), space),
        (neg_desc("a", "b"), neg_desc("b", "c")),
    ]
    assert got.stats == {"tests": 5, "expansions": 6, "cache_hits": 2}


# ------------------------------------------------------------- divergence

def test_plain_pfs_diverges_where_essential_variants_terminate():
    model = parse_model((FIXTURES / "diverge.des").read_text())
    space = model.space(SQHS)
    with pytest.raises(BudgetExhausted) as err:
        run_pfs(ExplicitSolver(model, OBS1, space), space, "plain",
                iteration_cap=300)
    assert err.value.partial.minimal_candidates == [seq_hyp(["f1"])]
    for variant in ("e", "ec"):
        got = run_pfs(ExplicitSolver(model, OBS1, space), space, variant)
        assert got.minimal_candidates == [seq_hyp(["f1"])]


# ----------------------------------------------------- random agreement

def test_strategy_agreement_random_instances():
    for model, obs in faulty_instances(23, 12):
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            expected = oracle_diagnose(model, obs, space)
            for strategy in terminating_strategies(space):
                solver = ExplicitSolver(model, obs, space)
                got = run_strategy(strategy, solver, space,
                                   iteration_cap=20_000)
                assert got.minimal_candidates == expected, \
                    (strategy, kind, model, obs.sequence)


def test_pfs_conflicts_do_not_change_results():
    for model, obs in faulty_instances(29, 10):
        space = model.space(SHS)
        base = run_pfs(ExplicitSolver(model, obs, space), space, "plain")
        with_c = run_pfs(ExplicitSolver(model, obs, space), space, "c")
        assert base.minimal_candidates == with_c.minimal_candidates


# ------------------------------------------------------- pinned requests

REQUESTS_FIXTURE = FIXTURES / "pfs_e_requests.json"


def property_from_text(text: str, space: Space) -> Property:
    """The property whose repr, ``kind(canon)``, is ``text``; its anchor
    is read in the layout of ``space.kind``."""
    kind, _, body = text.partition("(")
    inner = body[1:-2]  # strip the brackets of canon() and the ")"
    words = inner.split(",") if inner else []
    if space.kind == SHS:
        anchor = set_hyp(words)
    elif space.kind == MHS:
        anchor = multi_hyp({f: int(n) for f, n in
                            (w.split(":") for w in words)})
    else:
        anchor = seq_hyp(words)
    return Property(kind, anchor)


# The length of each case's request log, in fixture order: on these cases
# pfs-e and pfs-ec send the same requests.
LOG_LENGTHS = (5, 15, 21, 16, 18, 27, 25, 39)


@pytest.mark.parametrize("strategy", ["pfs-e", "pfs-ec"])
def test_pfs_e_requests_are_a_sublist_of_the_recorded_ones(strategy):
    # The fixture was recorded while PFS-e sent a coverage and a candidacy
    # test on every pop.  It now answers some questions from what the run
    # already holds, so its requests are those recorded, in the recorded
    # order, less some whose fresh answer the run already holds: a
    # candidate it was returned, or a refutation of a request that holds
    # every property of a conflict it was returned.  The cases are alarm
    # chains of benchmarks/families.py (alarm_chain_text).
    cases = json.loads(REQUESTS_FIXTURE.read_text())
    assert len(cases) == len(LOG_LENGTHS)
    for case, length in zip(cases, LOG_LENGTHS):
        model = parse_model(case["model"])
        obs = parse_observation(case["obs"], model)
        space = model.space(case["space"])
        recording = Recording(ExplicitSolver(model, obs, space))
        run_strategy(strategy, recording, space)
        sent = iter(recording.log)
        nxt = next(sent, None)
        returned, conflicts = set(), []
        for texts in case["requests"]:
            if nxt is not None and [repr(p) for p in nxt[0].props] == texts:
                if nxt[1].is_candidate:
                    returned.add(nxt[1].candidate)
                else:
                    conflicts.append(set(nxt[1].conflict))
                nxt = next(sent, None)
                continue
            skipped = TestRequest([property_from_text(t, space)
                                   for t in texts], space)
            answer = ExplicitSolver(model, obs, space).solve(skipped)
            if answer.is_candidate:
                assert answer.candidate in returned, (case["name"], texts)
            else:
                assert any(c <= set(skipped.props) for c in conflicts), \
                    (case["name"], texts)
        assert nxt is None, (case["name"], "sent a request not recorded")
        assert len(recording.log) == length, case["name"]


def test_capped_plain_pfs_keeps_explicit_tests_small():
    # plain PFS does not terminate on MHS; capped at 150 tests on this chain
    # its candidacy tests once searched 5,033,629 states (14 s), because a
    # summary holding a fault outside the tested hypothesis lived on until
    # it held the whole hypothesis too.  Now 7,666
    case = next(c for c in json.loads(REQUESTS_FIXTURE.read_text())
                if c["name"] == "alarm-chain-3-2-1-mhs")
    model = parse_model(case["model"])
    obs = parse_observation(case["obs"], model)
    space = model.space(case["space"])
    solver = ExplicitSolver(model, obs, space)
    with pytest.raises(BudgetExhausted) as hit:
        run_strategy("pfs", solver, space, iteration_cap=150)
    assert (hit.value.stats["tests"], hit.value.stats["expansions"]) == \
        (150, 351)
    assert solver.stats.extra["visited"] <= 20_000


MULT2 = FIXTURES / "circuits" / "mult2_flip3.ckt"


@pytest.mark.parametrize("strategy", ["pfs-e", "pfs-ec"])
def test_pfs_e_requests_on_a_multiplier_are_pinned(strategy):
    # The requests were recorded while PFS popped from a heap ordered by
    # order_key, so they pin the order PFS pops in: a successor put one
    # place too late in the open list changes the pfs-ec log.  The circuit
    # is circuit_text("multiplier", 2, 3, 3) of benchmarks/families.py.
    circuit, obs = parse_circuit(MULT2.read_text())
    recording = Recording(CircuitSolver(circuit, obs))
    run_strategy(strategy, recording, circuit.space())
    want = json.loads(MULT2.with_suffix(".json").read_text())[strategy]
    assert [[repr(p) for p in request.props]
            for request, _ in recording.log] == want
