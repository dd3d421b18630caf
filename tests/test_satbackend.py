import json
import random
from itertools import combinations, count, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp.contract import TestRequest
from diagfp.desmodel import (Observation, parse_model, parse_observation,
                             trace_in_model, trace_matches_observation)
from diagfp.errors import DiagError
from diagfp.explicit import (ExplicitSolver, fits_horizon, oracle_candidates,
                             oracle_diagnose)
from diagfp.hypothesis import MHS, SHS, SQHS, multi_hyp, seq_hyp, set_hyp
from diagfp.properties import (ANC, DESC, NEG_DESC, Property, member,
                               question_candidate, question_coverage,
                               question_minimal)
from diagfp.satbackend import (_PAIRWISE_LIMIT, Cnf, EncodingParams,
                                SatSolver, _anc_chain, _desc_chain,
                                encode_run, event_var)
from diagfp.satcore import MiniSolver
from diagfp.strategies import run_strategy

from test_explicit import faulty_instances
from test_live_kernel import ALARM_OBS, ALARM_PARAMS, ALARMS

FIXTURES = Path(__file__).parent / "fixtures"
OBS1 = Observation(("o1",))


@pytest.fixture
def oneshot():
    return parse_model((FIXTURES / "oneshot.des").read_text())


def all_solutions(cnf, project_vars):
    """Yield each assignment over project_vars that extends to a solution
    of cnf, by iterative blocking."""
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    while kernel.solve():
        picked = {v: kernel.value(v) for v in project_vars}
        yield picked
        kernel.add_clause([-v if picked[v] else v for v in project_vars])


def test_encode_model_solutions_are_model_paths(oneshot):
    params = EncodingParams(steps_per_obs=2)
    cnf = Cnf()
    events = encode_run(oneshot, OBS1, params, cnf)
    n = params.horizon(1)
    # the decode table lists every event variable, in timestep order and
    # registry order within a timestep
    assert events == [(event_var(cnf, e, t), e) for t in range(1, n + 1)
                      for e in oneshot.events
                      if event_var(cnf, e, t) is not None]
    traces = set()
    for sol in all_solutions(cnf, [v for v, _ in events]):
        trace = []
        for t in range(1, n + 1):
            for e in oneshot.events:
                v = event_var(cnf, e, t)
                if v is not None and sol[v]:
                    trace.append(e)
        assert trace_in_model(trace, oneshot)
        assert trace_matches_observation(trace, oneshot, OBS1)
        traces.add(tuple(trace))
    assert traces == {("f", "o1")}


def test_single_state_component_empty_trace():
    model = parse_model("component c\nstates s\ninit s\ntrans s u s\nend\n"
                        "observable\nfaults u\n")
    params = EncodingParams(steps_per_obs=3)
    space = model.space(SHS)
    out = SatSolver(model, Observation(()), space, params).solve(
        TestRequest(question_coverage([], space), space))
    assert out.is_candidate
    assert out.candidate == set_hyp([])


def test_observation_units(oneshot):
    params = EncodingParams(steps_per_obs=2)
    cnf = Cnf()
    encode_run(oneshot, OBS1, params, cnf)
    units = {tuple(c) for c in cnf.clauses if len(c) == 1}
    o1 = lambda t: event_var(cnf, "o1", t)
    assert (o1(2),) in units          # pinned at steps_per_obs * 1
    # an observable event has no variable, so is false, at every other step
    assert o1(1) is None
    assert o1(3) is None and o1(4) is None  # trailing slots silent


def model_blocks():
    """A SatSolver per space of each of 12 faulty_instances, of each alarm
    chain of tests/fixtures/pfs_e_requests.json and of the alarm model of
    test_live_kernel.py, as its constructor leaves it: the model block."""
    cases = [(m, o, EncodingParams(3)) for m, o in faulty_instances(24, 12)]
    for case in json.loads((FIXTURES / "pfs_e_requests.json").read_text()):
        model = parse_model(case["model"])
        cases.append((model, parse_observation(case["obs"], model),
                      EncodingParams()))
    cases.append((parse_model(ALARMS), ALARM_OBS, ALARM_PARAMS))
    for model, obs, params in cases:
        for kind in (SHS, MHS, SQHS):
            yield SatSolver(model, obs, model.space(kind), params)


def test_model_block_repeats_no_unit():
    # a clause holding a literal that an earlier unit asserts is true
    # before any decision, and the kernel drops it at load: encode_run
    # leaves such clauses out (the lone state of a component at t - 1, the
    # designated observed event)
    for solver in model_blocks():
        units = set()
        for clause in solver.cnf.clauses:
            assert units.isdisjoint(clause), (solver.model, clause)
            if len(clause) == 1:
                units.add(clause[0])


def test_model_block_repeats_no_clause():
    # on SqHS, encode_fault_interleaving writes no pairwise clause for two
    # faults of one component, which encode_run's clauses for that
    # component's events already imply
    sqhs = 0
    for solver in model_blocks():
        seen = set()
        for clause in solver.cnf.clauses:
            key = tuple(sorted(clause))
            assert key not in seen, (solver.model, solver.space.kind, clause)
            seen.add(key)
        sqhs += solver.space.kind == SQHS
    assert sqhs


def block_shape(cnf):
    """(states, alo, excluded) of a model block: the variables no key names
    (local states, and the moves of a component with a choice), the clauses
    of two or more of those all positive (the at-least-one of an
    exactly-one), and the pairs of event variables one binary clause
    excludes."""
    states = set(range(1, cnf.nvars + 1)) - set(cnf.index.values())
    events = {v for key, v in cnf.index.items() if key[0] == "e"}
    alo = [c for c in cnf.clauses if len(c) > 1 and set(c) <= states]
    excluded = {frozenset(-lit for lit in c) for c in cnf.clauses
                if len(c) == 2 and all(-lit in events for lit in c)}
    return states, alo, excluded


def shape_of(text, steps=2):
    """The model block of ``text`` under the empty observation, its horizon
    and its :func:`block_shape`."""
    model = parse_model(text)
    params = EncodingParams(steps)
    cnf = Cnf()
    encode_run(model, Observation(()), params, cnf)
    return cnf, params.horizon(0), *block_shape(cnf)


# one component, both states reachable at every timestep, one move per
# event: f and g from a, h from b
TWO_STATES = """component c
states a b
init a b
trans a f b
trans a g b
trans b h a
end
faults f g h
"""


def test_two_state_component_takes_one_variable_per_timestep():
    cnf, n, states, alo, excluded = shape_of(TWO_STATES)
    # a and b are x and -x of one variable, with no exactly-one
    assert len(states) == n + 1 and not alo
    for t in range(1, n + 1):
        f, g, h = (event_var(cnf, e, t) for e in "fgh")
        # h leaves b and f leaves a: the states exclude them already
        assert excluded >= {frozenset((f, g))}
        assert excluded.isdisjoint({frozenset((f, h)), frozenset((g, h))})


@pytest.mark.parametrize("text, alos", [
    # three states: an exactly-one per timestep, every pair excluded
    ("component c\nstates a b c\ninit a b c\ntrans a f b\ntrans b g c\n"
     "trans c h a\nend\nfaults f g h\n", 1),
    # f has two moves from a: every pair excluded, one state variable still
    ("component c\nstates a b\ninit a b\ntrans a f b\ntrans a f a\n"
     "trans b g a\ntrans b h a\nend\nfaults f g h\n", 0),
])
def test_three_states_or_a_choice_keep_every_exclusion(text, alos):
    cnf, n, states, alo, excluded = shape_of(text)
    assert len(alo) == alos * (n + 1)
    for t in range(1, n + 1):
        evs = [event_var(cnf, e, t) for e in "fgh"]
        assert excluded >= {frozenset(p) for p in combinations(evs, 2)}


def test_shs_desc_guarded_clause_shape(oneshot):
    space = oneshot.space(SHS)
    req = TestRequest((Property(DESC, set_hyp(["f"])),), space)
    # steps_per_obs=1 cannot reach the observation, so f has no variable;
    # with 2, f has one at the first timestep only
    for steps, f_steps in ((1, []), (2, [1])):
        params = EncodingParams(steps_per_obs=steps)
        solver = SatSolver(oneshot, OBS1, space, params)
        act, = solver.activate(req.props)
        cnf = solver.cnf
        n = params.horizon(1)
        fs = [event_var(cnf, "f", t) for t in range(1, n + 1)]
        assert [t for t, v in enumerate(fs, 1) if v is not None] == f_steps
        # desc({f}) is the guarded occurrence literal of f, which is defined
        # as the disjunction of f over the timesteps
        occ = cnf.var(("occ", "f"))
        assert [-act, occ] in cnf.clauses
        assert [-occ] + [v for v in fs if v is not None] in cnf.clauses
        for v in fs:
            assert v is None or [-v, occ] in cnf.clauses


def test_sat_candidate_and_conflict(oneshot):
    space = oneshot.space(SHS)
    params = EncodingParams(steps_per_obs=2)
    solver = SatSolver(oneshot, OBS1, space, params)
    out = solver.solve(TestRequest(question_candidate(set_hyp(["f"]), space),
                                   space))
    assert out.is_candidate
    assert out.candidate == set_hyp(["f"])
    f_pos = out.witness.index("f")
    o_pos = out.witness.index("o1")
    assert f_pos < o_pos

    out = solver.solve(TestRequest(question_candidate(set_hyp([]), space),
                                   space))
    assert not out.is_candidate
    conflict_props = set(out.conflict)
    assert conflict_props <= set(question_candidate(set_hyp([]), space))
    # f is required by every consistent behaviour, so excluding it must be
    # part of the refutation
    assert Property(NEG_DESC, set_hyp(["f"])) in conflict_props
    assert solver.check_conflict(out.conflict)


def test_counts_encoding_via_requests():
    model = parse_model(
        "component c\nstates q0 q1\ninit q0\ntrans q0 f q0\n"
        "trans q0 o1 q1\nend\nobservable o1\nfaults f\n")
    space = model.space(MHS)
    params = EncodingParams(steps_per_obs=4)
    solver = SatSolver(model, OBS1, space, params)
    for k in range(0, 3):
        out = solver.solve(TestRequest(
            question_candidate(multi_hyp({"f": k}), space), space))
        assert out.is_candidate, k
        assert out.candidate == multi_hyp({"f": k})
    # more occurrences than fit before the pinned observation
    out = solver.solve(TestRequest(
        (Property(DESC, multi_hyp({"f": 20})),), space))
    assert not out.is_candidate


def test_sqhs_desc_and_anc_chains():
    model = parse_model(
        "component c\nstates q0 q1 q2 q3\ninit q0\n"
        "trans q0 f1 q1\ntrans q1 f2 q2\ntrans q2 o1 q3\n"
        "trans q0 f2 q0\nend\nobservable o1\nfaults f1 f2\n")
    space = model.space(SQHS)
    params = EncodingParams(steps_per_obs=4)
    solver = SatSolver(model, OBS1, space, params)
    # the model requires f1 then f2 (optionally f2s before f1)
    out = solver.solve(TestRequest(
        question_candidate(seq_hyp(["f1", "f2"]), space), space))
    assert out.is_candidate and out.candidate == seq_hyp(["f1", "f2"])
    out = solver.solve(TestRequest(
        question_candidate(seq_hyp(["f2", "f1"]), space), space))
    assert not out.is_candidate
    out = solver.solve(TestRequest(
        question_candidate(seq_hyp(["f2", "f1", "f2"]), space), space))
    assert out.is_candidate
    # anc: only sequences embedding into [f2,f1,f2] allowed; [f1,f2] is not
    out = solver.solve(TestRequest(
        (Property(ANC, seq_hyp(["f1"])),), space))
    assert not out.is_candidate
    out = solver.solve(TestRequest(
        (Property(ANC, seq_hyp(["f1", "f2"])),), space))
    assert out.is_candidate


def _embeds(anchor, steps):
    """``anchor`` embeds as a subsequence in a word of ``steps``, one fault
    set per timestep, each timestep matching at most one anchor position."""
    i = 0
    for step in steps:
        if i < len(anchor) and anchor[i] in step:
            i += 1
    return i == len(anchor)


def _forced(kernel, assumed, lit, value) -> bool:
    """Under ``assumed``, the kernel's models all give ``lit`` ``value``."""
    want, other = (lit, -lit) if value else (-lit, lit)
    return kernel.solve(assumed + [want]) and not kernel.solve(assumed + [other])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chains_match_brute_force(n):
    faults = ("a", "b")
    # (a, a) is an MHS threshold; the later anchors extend earlier ones or
    # share a prefix with them, so they reuse those columns
    anchors = [("a", "b"), ("a", "a"), ("a", "b", "a"), ("b",),
               ("a", "a", "b"), ("b", "b", "a")]
    cnf = Cnf()
    ev = {(f, t): cnf.var(("e", f, t))
          for t in range(1, n + 1) for f in faults}
    desc = {a: _desc_chain(cnf, a, n) for a in anchors}
    n_desc = len(cnf.clauses)
    anc = {a: _anc_chain(cnf, a, faults, n) for a in anchors + [()]}
    prefixes = {a[:i] for a in anchors for i in range(len(a) + 1)}
    keys = [k[0] for k in cnf.index]
    assert keys.count("dh") == (len(prefixes) - 1) * (n + 1)
    assert keys.count("ah") == len(prefixes) * (n + 1)

    # the anc clauses contradict two faults at one timestep, which the
    # desc chains (MHS thresholds among them) must still read
    kernels = []
    for clauses in (cnf.clauses[:n_desc], cnf.clauses):
        kernel = MiniSolver()
        kernel.ensure_vars(cnf.nvars)
        kernel.add_clauses(clauses)
        kernels.append(kernel)
    subsets = [set(), {"a"}, {"b"}, {"a", "b"}]
    for steps in product(subsets, repeat=n):
        assumed = [v if f in steps[t - 1] else -v for (f, t), v in ev.items()]
        for a, top in desc.items():
            assert _forced(kernels[0], assumed, top, _embeds(a, steps)), \
                (a, steps)
        if any(len(step) > 1 for step in steps):
            continue
        word = [f for step in steps for f in step]
        for a, top in anc.items():
            assert _forced(kernels[1], assumed, top,
                           _embeds(word, [{f} for f in a])), (a, steps)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("exactly", [False, True], ids=["amo", "exactly"])
def test_at_most_one_and_exactly_one(n, exactly):
    # pairwise up to _PAIRWISE_LIMIT literals, the ladder beyond
    cnf = Cnf()
    lits = [cnf.new() for _ in range(n)]
    (cnf.exactly_one if exactly else cnf.at_most_one)(lits)
    assert (cnf.nvars > n) == (n > _PAIRWISE_LIMIT)
    kernel = MiniSolver()
    kernel.ensure_vars(cnf.nvars)
    kernel.add_clauses(cnf.clauses)
    for x in lits:
        assert kernel.solve([x] + [-y for y in lits if y != x])
    for x, y in combinations(lits, 2):
        assert not kernel.solve([x, y])
    assert kernel.solve([-x for x in lits]) is not exactly


def test_neg_desc_of_h0_is_contradictory(oneshot):
    space = oneshot.space(SHS)
    solver = SatSolver(oneshot, OBS1, space, EncodingParams(2))
    out = solver.solve(TestRequest(
        (Property(NEG_DESC, set_hyp([])),), space))
    assert not out.is_candidate
    assert out.conflict == (Property(NEG_DESC, set_hyp([])),)


def test_conflicts_resolve_unsat_and_exclude_no_candidate():
    # {} is a candidate of no faulty instance, in any space
    for model, obs in faulty_instances(21, 40):
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            params = EncodingParams(steps_per_obs=3)
            solver = SatSolver(model, obs, space, params)
            cands = oracle_candidates(model, obs, space, max_faults=3)
            hyp = space.h0
            req = TestRequest(question_candidate(hyp, space), space)
            out = solver.solve(req)
            assert not out.is_candidate
            assert set(out.conflict) <= set(req.props)
            assert solver.check_conflict(out.conflict)
            for cand in cands:
                assert not member(cand, out.conflict, space), \
                    (model, obs.sequence, kind, cand)


def test_sat_agrees_with_explicit_when_certified():
    rng = random.Random(22)
    agreed = 0
    for model, obs in faulty_instances(22, 300):
        kind = rng.choice((SHS, MHS, SQHS))
        space = model.space(kind)
        cands = sorted(oracle_candidates(model, obs, space, max_faults=2),
                       key=lambda h: h.canon())
        anchor = rng.choice(cands) if cands and rng.random() < 0.7 else \
            rng.choice(space.enumerate(2))
        form = rng.randrange(3)
        if form == 0:
            props = question_candidate(anchor, space)
        elif form == 1:
            props = question_minimal(anchor, space)
        else:
            props = question_coverage([anchor], space)
        req = TestRequest(props, space)
        params = EncodingParams(steps_per_obs=3)
        exp = ExplicitSolver(model, obs, space).solve(req)
        if exp.is_candidate and not fits_horizon(model, obs, req,
                                                 params.steps_per_obs):
            continue  # not certified at this bound
        got = SatSolver(model, obs, space, params).solve(req)
        assert got.is_candidate == exp.is_candidate, \
            (model, obs.sequence, kind, list(props))
        agreed += 1
        if agreed == 150:
            break
    assert agreed == 150


def certified_steps(model, obs, space, minimal) -> int:
    """The least steps_per_obs at which ``fits_horizon`` certifies a
    witness of every minimal candidate: at that bound the SAT backend sees
    them all, so its diagnosis is the full one."""
    return next(k for k in count(1) if all(
        fits_horizon(model, obs,
                     TestRequest(question_candidate(h, space), space), k)
        for h in minimal))


@settings(derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sat_diagnosis_equals_the_oracle_at_a_certified_bound(seed):
    model, obs = next(faulty_instances(seed, 1))
    for kind in (SHS, MHS, SQHS):
        space = model.space(kind)
        minimal = oracle_diagnose(model, obs, space)
        params = EncodingParams(certified_steps(model, obs, space, minimal))
        want = [h.canon() for h in minimal]
        for strategy in ("pfs-ec", "pls-r"):
            got = run_strategy(strategy,
                               SatSolver(model, obs, space, params), space)
            assert got.canon() == want, (model, obs.sequence, kind, strategy)


def test_request_cnf_deterministic(oneshot):
    space = oneshot.space(SHS)
    req = TestRequest(question_candidate(set_hyp(["f"]), space), space)
    params = EncodingParams(steps_per_obs=2)
    s1, s2 = (SatSolver(oneshot, OBS1, space, params) for _ in range(2))
    a1, a2 = s1.activate(req.props), s2.activate(req.props)
    assert s1.cnf.index == s2.cnf.index
    assert s1.cnf.nvars == s2.cnf.nvars
    assert s1.cnf.clauses == s2.cnf.clauses
    assert a1 == a2
    assert event_var(s1.cnf, "f", 1) is not None


def _event_keys(cnf) -> set:
    return {key for key in cnf.index if key[0] == "e"}


def test_property_encoding_creates_no_event_variable():
    # only the model encoding makes event variables: a property encoding
    # that made one for an event the model leaves out would let that event
    # occur outside every path of the model
    for model, obs in faulty_instances(23, 8):
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            for strategy in ("pfs-ec", "pls"):
                solver = SatSolver(model, obs, space, EncodingParams(3))
                built = _event_keys(solver.cnf)
                run_strategy(strategy, solver, space)
                assert _event_keys(solver.cnf) == built, \
                    (model, obs.sequence, kind, strategy)


def test_unreachable_observation_fails_every_request(oneshot):
    # o1 needs f first, but steps_per_obs=1 pins it at the first timestep;
    # the diagnosis of so short a horizon is incomplete, so it is not pinned
    params = EncodingParams(steps_per_obs=1)
    for kind in (SHS, MHS, SQHS):
        space = oneshot.space(kind)
        solver = SatSolver(oneshot, OBS1, space, params)
        questions = [question_coverage([], space)]
        for hyp in space.enumerate(2):
            questions += [question_candidate(hyp, space),
                          question_coverage([hyp], space)]
        for props in questions:
            out = solver.solve(TestRequest(props, space))
            assert not out.is_candidate, (kind, props)
            assert solver.check_conflict(out.conflict), (kind, props)


@pytest.mark.parametrize("bad", [True, False, 0, -1, 2.0, "3", None])
def test_encoding_params_reject_anything_but_a_positive_int(bad):
    with pytest.raises(DiagError):
        EncodingParams(bad)


def test_encoding_params_accept_a_positive_int():
    assert EncodingParams(1).horizon(2) == 3
    assert EncodingParams(steps_per_obs=4).steps_per_obs == 4
