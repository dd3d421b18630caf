import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp import explicit
from diagfp.contract import TestRequest
from diagfp.desmodel import (Observation, parse_model, parse_observation,
                             trace_hypothesis, trace_in_model,
                             trace_matches_observation)
from diagfp.errors import StateBudgetExceeded
from diagfp.explicit import (ExplicitSolver, certified_bound, fits_horizon,
                             oracle_candidates, oracle_diagnose)
from diagfp.hypothesis import (MHS, SHS, SQHS, extend, multi_hyp, seq_hyp,
                               set_hyp)
from diagfp.properties import (ANC, DESC, NEG_ANC, NEG_DESC, Property,
                               member, question_candidate, question_coverage)
from diagfp.strategies import run_strategy, terminating_strategies

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def oneshot():
    return parse_model((FIXTURES / "oneshot.des").read_text())


OBS1 = Observation(("o1",))


def test_solve_candidate_found(oneshot):
    space = oneshot.space(SHS)
    req = TestRequest(question_candidate(set_hyp(["f"]), space), space)
    out = ExplicitSolver(oneshot, OBS1, space).solve(req)
    assert out.is_candidate
    assert out.candidate == set_hyp(["f"])
    assert out.witness == ("f", "o1")


def check_conflict(model, obs, request, conflict):
    """``conflict`` is a sub-tuple of the request, in request order, and a
    fresh solver's test of it alone fails."""
    assert conflict == tuple(p for p in request.props if p in conflict)
    alone = TestRequest(conflict, request.space)
    assert not ExplicitSolver(model, obs, request.space).solve(
        alone).is_candidate


def test_solve_candidate_failed_trivial_conflict(oneshot):
    space = oneshot.space(SHS)
    req = TestRequest(question_candidate(set_hyp([]), space), space)
    out = ExplicitSolver(oneshot, OBS1, space).solve(req)
    assert not out.is_candidate
    # desc({}) holds for every hypothesis, so only neg_desc({f}) cuts
    assert out.conflict == (Property(NEG_DESC, set_hyp(["f"])),)
    check_conflict(oneshot, OBS1, req, out.conflict)


def test_empty_everything(oneshot):
    space = oneshot.space(SHS)
    out = ExplicitSolver(oneshot, Observation(()), space).solve(
        TestRequest((), space))
    assert out.is_candidate
    assert out.witness == ()


def test_solve_coverage(oneshot):
    space = oneshot.space(SHS)

    def coverage(obs, hyps):
        return ExplicitSolver(oneshot, obs, space).solve(
            TestRequest(question_coverage(hyps, space), space))

    out = coverage(OBS1, [])
    assert out.is_candidate and out.candidate == set_hyp(["f"])
    out = coverage(OBS1, [set_hyp(["f"])])
    assert not out.is_candidate
    # inconsistent observation: no behaviour at all
    out = coverage(Observation(("o1", "o1")), [])
    assert not out.is_candidate


def test_oracle_examples(oneshot):
    assert oracle_diagnose(oneshot, OBS1, oneshot.space(SHS)) == [set_hyp(["f"])]
    assert oracle_diagnose(oneshot, Observation(("o1", "o1")),
                           oneshot.space(SHS)) == []
    # a model allowing both [o1] and [f,o1]: nominal dominates
    model = parse_model(
        "component c\nstates q0 q1\ninit q0\ntrans q0 o1 q1\n"
        "trans q0 f q0\nend\nobservable o1\nfaults f\n")
    assert oracle_diagnose(model, OBS1, model.space(SHS)) == [set_hyp([])]


def test_oracle_sqhs_order_matters():
    model = parse_model(
        "component c\nstates q0 q1 q2 q3\ninit q0\n"
        "trans q0 f1 q1\ntrans q1 f2 q2\ntrans q2 o1 q3\nend\n"
        "observable o1\nfaults f1 f2\n")
    got = oracle_diagnose(model, OBS1, model.space(SQHS))
    assert got == [seq_hyp(["f1", "f2"])]
    assert oracle_diagnose(model, OBS1, model.space(MHS)) == \
        [multi_hyp({"f1": 1, "f2": 1})]


def test_state_budget(oneshot):
    with pytest.raises(StateBudgetExceeded):
        oracle_diagnose(oneshot, OBS1, oneshot.space(SHS), state_budget=1)


def rand_model(rng, n_comp=None, n_states=None, n_faults=None):
    n_comp = n_comp or rng.randint(1, 3)
    n_faults = n_faults or rng.randint(1, 3)
    obs_events = [f"o{i}" for i in range(1, rng.randint(1, 3) + 1)]
    fault_events = [f"f{i}" for i in range(1, n_faults + 1)]
    extra = ["u1"] if rng.random() < 0.5 else []
    events = obs_events + fault_events + extra
    lines = []
    used = set()
    for ci in range(n_comp):
        ns = n_states or rng.randint(2, 4)
        states = [f"c{ci}s{j}" for j in range(ns)]
        lines.append(f"component c{ci}")
        lines.append("states " + " ".join(states))
        lines.append(f"init {states[0]}")
        for _ in range(rng.randint(ns, 2 * ns)):
            s, t = rng.choice(states), rng.choice(states)
            e = rng.choice(events)
            used.add(e)
            lines.append(f"trans {s} {e} {t}")
        lines.append("end")
    lines.append("observable " + " ".join(e for e in obs_events if e in used))
    lines.append("faults " + " ".join(e for e in fault_events if e in used))
    if not any(e in used for e in fault_events):
        return None
    return parse_model("\n".join(lines) + "\n")


def random_walk(model, rng, max_len):
    """A random trace accepted by the model (possibly shorter than asked)."""
    gstate = rng.choice(model.initial_global_states())
    trace = []
    for _ in range(max_len):
        enabled = []
        for e in model.events:
            nxt = model.step(gstate, e)
            if nxt:
                enabled.append((e, nxt))
        if not enabled:
            break
        e, nxt = rng.choice(enabled)
        trace.append(e)
        gstate = rng.choice(nxt)
    return trace


def gen_instance(rng):
    model = rand_model(rng)
    if model is None:
        return None
    walk = random_walk(model, rng, rng.randint(0, 6))
    obs = Observation(tuple(e for e in walk if e in model.observable))
    if len(obs) > 4:
        return None
    return model, obs


def faulty_instances(seed, count):
    """``count`` random instances whose SHS diagnosis is not ``[{}]``, from
    at most 200 draws per instance: most draws of ``gen_instance`` (about 15
    in 16) need no fault to explain their observation, so even one instance
    falls short of 200 draws with odds near 1 in 400,000."""
    rng = random.Random(seed)
    max_draws = 200 * count
    for _ in range(max_draws):
        inst = gen_instance(rng)
        if inst is None:
            continue
        model, obs = inst
        space = model.space(SHS)
        if oracle_diagnose(model, obs, space) != [space.h0]:
            yield inst
            count -= 1
            if not count:
                return
    raise AssertionError(f"{count} faulty instances short after "
                         f"{max_draws} draws")


def brute_words(model, obs, max_len):
    """Literal enumeration oracle: all accepted words matching obs."""
    out = []
    for k in range(max_len + 1):
        for word in itertools.product(model.events, repeat=k):
            if trace_matches_observation(word, model, obs) and \
                    trace_in_model(word, model):
                out.append(word)
    return out


def test_oracle_matches_literal_enumeration():
    from diagfp.hypothesis import leq, min_antichain
    done = reached_minimal = 0
    for model, obs in faulty_instances(8, 40):
        if len(model.events) ** 4 > 5000 or len(obs) > 2:
            continue
        words = brute_words(model, obs, 4)
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            hyps = [trace_hypothesis(w, model, space) for w in words]
            expected_min = min_antichain(hyps, space)
            got = oracle_diagnose(model, obs, space)
            # literal enumeration is truncated at length 4, so the oracle may
            # know extra minimal candidates only reachable by longer traces;
            # every enumerated candidate must still be covered, and a minimal
            # oracle candidate that some enumerated trace reaches is minimal
            # among the enumerated ones too
            for h in expected_min:
                assert any(leq(g, h, space) for g in got)
            reached = set(hyps)
            for g in got:
                if g in reached:
                    assert g in expected_min
                    reached_minimal += 1
        done += 1
        if done == 25:
            break
    assert done == 25 and reached_minimal


def test_solve_agrees_with_candidate_enumeration():
    rng = random.Random(9)
    for model, obs in faulty_instances(9, 60):
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            cands = oracle_candidates(model, obs, space, max_faults=3)
            hyp = rng.choice(sorted(cands, key=lambda h: h.canon())) \
                if cands and rng.random() < 0.6 else space.h0
            req = TestRequest(question_candidate(hyp, space), space)
            out = ExplicitSolver(model, obs, space).solve(req)
            assert out.is_candidate == (hyp in cands)
            if out.is_candidate:
                assert out.candidate == hyp
                assert trace_in_model(out.witness, model)
                assert trace_matches_observation(out.witness, model, obs)
                assert member(out.candidate, req.props, space)


def test_single_requests_agree_with_candidate_enumeration():
    # requests of 1-4 distinct properties of all four kinds, anchored at
    # hypotheses of at most two faults (or counts, or length): one that an
    # enumerated candidate meets is satisfiable, a witness re-validates, and
    # a conflict fails alone and no enumerated candidate meets it
    rng = random.Random(11)
    for model, obs in faulty_instances(11, 60):
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            cands = oracle_candidates(model, obs, space, max_faults=3)
            props = [Property(k, anchor)
                     for k in (DESC, ANC, NEG_DESC, NEG_ANC)
                     for anchor in space.enumerate(2)]
            for _ in range(5):
                request = TestRequest(rng.sample(props, rng.randint(1, 4)),
                                      space)
                out = ExplicitSolver(model, obs, space).solve(request)
                if out.is_candidate:
                    assert trace_in_model(out.witness, model)
                    assert trace_matches_observation(out.witness, model, obs)
                    assert out.candidate == trace_hypothesis(
                        out.witness, model, space)
                    assert member(out.candidate, request.props, space)
                    continue
                assert not any(member(c, request.props, space)
                               for c in cands)
                check_conflict(model, obs, request, out.conflict)
                assert not any(member(c, out.conflict, space) for c in cands)


def test_fits_horizon(oneshot):
    space = oneshot.space(SHS)
    req = TestRequest(question_candidate(set_hyp(["f"]), space), space)
    assert fits_horizon(oneshot, OBS1, req, steps_per_obs=2)
    # gap needs one fault before o1; steps_per_obs=1 leaves no room
    assert not fits_horizon(oneshot, OBS1, req, steps_per_obs=1)
    # trailing fault requires the trailing slot
    model = parse_model(
        "component c\nstates q0 q1 q2\ninit q0\ntrans q0 o1 q1\n"
        "trans q1 f q2\nend\nobservable o1\nfaults f\n")
    req = TestRequest(question_candidate(set_hyp(["f"]), model.space(SHS)),
                      model.space(SHS))
    assert fits_horizon(model, OBS1, req, steps_per_obs=1)


def test_certified_bound(oneshot):
    assert certified_bound(oneshot, OBS1) == (3 + 1) * 2


def test_solver_class_counts(oneshot):
    space = oneshot.space(SHS)
    solver = ExplicitSolver(oneshot, OBS1, space)
    found = solver.solve(
        TestRequest(question_candidate(set_hyp(["f"]), space), space))
    failed = solver.solve(
        TestRequest(question_candidate(set_hyp([]), space), space))
    assert found.is_candidate and not failed.is_candidate
    assert solver.stats.extra["visited"] > 0


# Two components that raise alarms when degraded; c1 can reset unobserved or
# hand its degradation to c2, so either component's faults explain alarm2.
ALARM_CHAIN = """
component c1
states ok deg
init ok
trans ok f1 deg
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
faults f1 f2
"""


def graph_case(name):
    if name == "alarms":
        return parse_model(ALARM_CHAIN), Observation(("alarm2", "alarm1"))
    model = parse_model((FIXTURES / f"{name}.des").read_text())
    obs = parse_observation((FIXTURES / f"{name}.obs").read_text(), model)
    return model, obs


def count_graph_builds(monkeypatch):
    calls = []
    build = explicit._product_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(explicit, "_product_graph", counted)
    return calls


class Recording:
    def __init__(self, solver):
        self.solver, self.space = solver, solver.space
        self.log = []

    def solve(self, request):
        outcome = self.solver.solve(request)
        self.log.append((request, outcome))
        return outcome


@pytest.mark.parametrize("strategy", ["pfs-ec", "pls"])
@pytest.mark.parametrize("kind", [SHS, MHS, SQHS])
@pytest.mark.parametrize("name", ["oneshot", "diverge", "alarms"])
def test_cached_graph_answers_like_one_shot_solves(monkeypatch, name, kind,
                                                   strategy):
    model, obs = graph_case(name)
    space = model.space(kind)
    calls = count_graph_builds(monkeypatch)
    solver = ExplicitSolver(model, obs, space)
    assert calls == []  # built by the first test, not the constructor
    recording = Recording(solver)
    got = run_strategy(strategy, recording, space)
    assert len(calls) == 1
    assert len(recording.log) > 1
    assert got.minimal_candidates == oracle_diagnose(model, obs, space)
    for request, outcome in recording.log:
        # candidate, witness and conflict all equal a fresh solver's
        assert outcome == ExplicitSolver(model, obs, space).solve(request)
        if not outcome.is_candidate:
            check_conflict(model, obs, request, outcome.conflict)


DEAD_END = """
component c
states q0 q1 q2 sink
init q0
trans q0 f q1
trans q1 o1 q2
trans {g_from} g sink
trans sink u sink
end
observable o1
faults f g
"""


def test_search_skips_branches_that_cannot_complete_the_observation():
    # the fault g leads into a sink that can never emit o1
    dead = parse_model(DEAD_END.format(g_from="q0"))
    live = parse_model(DEAD_END.format(g_from="sink"))  # g never fires
    graph = explicit._product_graph(dead, OBS1)
    assert [graph.nodes[nid] for nid in graph.initial] == [(("q0",), 0)]
    # the sink is reachable, and no edge leads to it
    sink = graph.nodes.index((("sink",), 0))
    assert all(target != sink for out in graph.edges for _, target, _ in out)
    # {f}: (q0,{}), (q1,{f}), (q2,{f}), no node of the sink branch; {g}:
    # (q0,{}) alone, since (q1,{f}) joined with the {g} that desc({g})
    # forces holds {f,g}, which neg_desc({f,g}) rules out
    for hyp, want in ((set_hyp(["f"]), 3), (set_hyp(["g"]), 1)):
        outcomes, visited = [], []
        for model in (dead, live):
            space = model.space(SHS)
            solver = ExplicitSolver(model, OBS1, space)
            outcomes.append(solver.solve(
                TestRequest(question_candidate(hyp, space), space)))
            visited.append(solver.stats.extra["visited"])
        assert outcomes[0] == outcomes[1]
        assert visited == [want, want]
    assert outcomes[0].is_candidate is False
    space = dead.space(SHS)
    request = TestRequest(question_candidate(set_hyp(["f"]), space), space)
    assert ExplicitSolver(dead, OBS1, space).solve(request).witness == \
        ("f", "o1")


@pytest.mark.parametrize("kind", [SHS, MHS, SQHS])
@pytest.mark.parametrize("question", ["candidate", "anc"])
def test_search_prunes_nodes_that_violate_a_monotone_property(kind,
                                                              question):
    # o1 needs the fault f; candidacy of the empty hypothesis (through
    # neg_desc of f) and anc of g both rule f out, so the search enters the
    # start node alone and the conflict names only the cutting property
    model = parse_model(DEAD_END.format(g_from="sink"))
    space = model.space(kind)
    if question == "candidate":
        props = question_candidate(space.h0, space)
        cut = Property(NEG_DESC, extend(space.h0, "f"))
    else:
        props = (Property(ANC, extend(space.h0, "g")),)
        cut = props[0]
    solver = ExplicitSolver(model, OBS1, space)
    out = solver.solve(TestRequest(props, space))
    assert out.conflict == (cut,)
    assert solver.stats.extra == {"visited": 1, "expanded": 1}


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_strategies_on_random_models_equal_the_oracle(seed):
    model, obs = next(faulty_instances(seed, 1))
    for kind in (SHS, MHS, SQHS):
        space = model.space(kind)
        expected = oracle_diagnose(model, obs, space)
        for strategy in terminating_strategies(space):
            recording = Recording(ExplicitSolver(model, obs, space))
            got = run_strategy(strategy, recording, space)
            assert got.minimal_candidates == expected
            for request, outcome in recording.log:
                if not outcome.is_candidate:
                    check_conflict(model, obs, request, outcome.conflict)


def test_tiny_state_budget_stops_the_graph_build():
    model, obs = graph_case("alarms")
    space = model.space(MHS)
    request = TestRequest(question_coverage([], space), space)
    with pytest.raises(StateBudgetExceeded):
        explicit._product_graph(model, obs, state_budget=2)
    with pytest.raises(StateBudgetExceeded):
        ExplicitSolver(model, obs, space, state_budget=2).solve(request)
    with pytest.raises(StateBudgetExceeded):
        oracle_diagnose(model, obs, space, state_budget=2)
