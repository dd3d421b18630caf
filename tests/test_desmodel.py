import itertools
import random
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagfp.desmodel import (Component, DesModel, Observation, parse_model,
                             parse_observation, trace_hypothesis,
                             trace_in_model, trace_matches_observation)
from diagfp.errors import DiagError, ModelFormatError
from diagfp.hypothesis import (MHS, SHS, SQHS, extend, multi_hyp, seq_hyp,
                               set_hyp)

from test_explicit import faulty_instances, gen_instance, random_walk

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def oneshot():
    return parse_model((FIXTURES / "oneshot.des").read_text())


def test_parse_oneshot_shape(oneshot):
    assert len(oneshot.components) == 1
    comp = oneshot.components[0]
    assert comp.states == ("q0", "q1", "q2")
    assert len(comp.trans) == 2
    assert oneshot.observable == ("o1",)
    assert oneshot.faults == ("f",)


def test_parse_observation(oneshot):
    obs = parse_observation("o1\n", oneshot)
    assert obs.sequence == ("o1",)
    assert parse_observation("", oneshot).sequence == ()
    assert parse_observation("# nothing\n\n", oneshot).sequence == ()


def test_parse_errors_carry_line_numbers():
    bad = "component c\nstates s0\ninit s0\ntrans s0 e s9\nend\n"
    with pytest.raises(ModelFormatError) as err:
        parse_model(bad)
    assert err.value.line == 4
    with pytest.raises(ModelFormatError):
        parse_model("observable o1\nfaults f\n")  # no components


@pytest.mark.parametrize("ch", list(",:[]{}"))
def test_parse_rejects_event_names_that_break_canon(ch):
    text = (f"component c\nstates s0 s1\ninit s0\ntrans s0 f{ch}g s1\nend\n"
            f"faults f{ch}g\n")
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert err.value.line == 4


@pytest.mark.parametrize("states", ["states s t s", "states s t\nstates s"])
def test_parse_rejects_duplicate_state_names(states):
    # a state name must name one state: the SAT encoding keeps one literal
    # per component, state name and timestep
    text = (f"component c\n{states}\ninit s\ntrans s f t\ntrans t o t\n"
            "end\nobservable o\nfaults f\n")
    with pytest.raises(ModelFormatError, match="duplicate state 's'") as err:
        parse_model(text)
    assert err.value.line == states.count("\n") + 2


_BLOCK = "component c\nstates s t\n{init}trans s f t\nend\n"


@pytest.mark.parametrize("text, message, line", [
    # the constructors' checks, reported at the block's component header
    (_BLOCK.format(init="init u\n") + "faults f\n", "init not in states", 1),
    ("\n" + _BLOCK.format(init="") + "faults f\n", "no init state", 2),
    # a second block of one name, at its header
    (_BLOCK.format(init="init s\n") * 2 + "faults f\n",
     "duplicate component names", 6),
])
def test_parse_reports_the_line_of_a_bad_component(text, message, line):
    with pytest.raises(ModelFormatError, match=message) as err:
        parse_model(text)
    assert err.value.line == line


def test_model_built_through_the_api_rejects_duplicate_states():
    with pytest.raises(ModelFormatError, match="duplicate state 's'"):
        DesModel((Component("c", ("s", "t", "s"), ("s",),
                            (("s", "f", "t"), ("t", "o", "t"))),),
                 ("o",), ("f",))


def _chain(name="c", states=("s", "t"), init=("s",)):
    return Component(name, states, init, (("s", "f", "t"), ("t", "o", "s")))


@pytest.mark.parametrize("build, message", [
    # the solvers took an init state outside the states as no start at all
    # and returned an empty diagnosis
    (lambda: _chain(init=("u",)), "init not in states"),
    (lambda: _chain(init=()), "no init state"),
    # SatSolver raised a bare KeyError on the undeclared endpoint 't'
    (lambda: _chain(states=("s",)), "transition endpoint undeclared"),
    (lambda: DesModel((_chain(), _chain()), ("o",), ("f",)),
     "duplicate component names"),
    (lambda: DesModel((_chain(),), ("o", "f"), ("f",)), "unobservable"),
    (lambda: DesModel((_chain(),), ("o",), ("g",)), "event g appears in no"),
])
def test_model_built_through_the_api_is_checked(build, message):
    with pytest.raises(ModelFormatError, match=message):
        build()


def test_observable_fault_rejected():
    text = ("component c\nstates s0 s1\ninit s0\ntrans s0 f s1\nend\n"
            "observable f\nfaults f\n")
    with pytest.raises(ModelFormatError):
        parse_model(text)


def test_unknown_fault_event_rejected():
    text = ("component c\nstates s0 s1\ninit s0\ntrans s0 e s1\nend\n"
            "observable e\nfaults zz\n")
    with pytest.raises(ModelFormatError):
        parse_model(text)


def test_observation_rejects_non_observable(oneshot):
    with pytest.raises(ModelFormatError) as err:
        parse_observation("o1\nf\n", oneshot)
    assert err.value.line == 2


def test_trace_in_model(oneshot):
    assert trace_in_model(["f", "o1"], oneshot)
    assert trace_in_model([], oneshot)
    assert not trace_in_model(["o1"], oneshot)
    assert not trace_in_model(["f", "f"], oneshot)
    with pytest.raises(DiagError):
        trace_in_model(["nope"], oneshot)
    # checked before any replay: a word rejected at its first event still
    # raises on an unknown event further on
    with pytest.raises(DiagError, match="'nope'"):
        trace_in_model(["o1", "nope"], oneshot)


def global_replay(trace, model):
    """``trace_in_model`` by its definition: the set of global states
    reachable from the initial ones, stepped by every event of the word."""
    frontier = set(model.initial_global_states())
    for e in trace:
        frontier = {nxt for g in frontier for nxt in model.step(g, e)}
        if not frontier:
            return False
    return True


def _words(model, rng):
    """Words of the model's events: random walks, which it accepts, and the
    same walks with one event replaced, and uniform draws, which it mostly
    rejects."""
    for _ in range(12):
        walk = random_walk(model, rng, rng.randrange(9))
        yield walk
        if walk:
            walk[rng.randrange(len(walk))] = rng.choice(model.events)
            yield walk
        yield [rng.choice(model.events) for _ in range(rng.randrange(7))]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_in_model_matches_a_global_replay(seed):
    rng = random.Random(seed)
    inst = None
    while inst is None:
        inst = gen_instance(rng)
    model, _ = inst
    for word in _words(model, rng):
        assert trace_in_model(word, model) == global_replay(word, model), word


def test_trace_in_model_matches_a_global_replay_on_faulty_instances():
    # components of these models often have several moves for one event,
    # and most events are outside some component's alphabet
    rng = random.Random(5)
    answers = []
    nondeterministic = 0
    for model, _ in faulty_instances(17, 25):
        nondeterministic += any(len(targets) > 1 for comp in model.components
                                for targets in comp.table.values())
        for word in _words(model, rng):
            answers.append(trace_in_model(word, model))
            assert answers[-1] == global_replay(word, model), word
    assert nondeterministic > 5
    assert answers.count(True) > 100 and answers.count(False) > 100


def _ticking(k):
    """``k`` components that share the event ``tick``, each free to move
    between its two states on it, and each with an observable ``o{i}``."""
    blocks = "".join(
        f"component c{i}\nstates s t\ninit s\ntrans s tick s\n"
        f"trans s tick t\ntrans t tick s\ntrans t tick t\ntrans t o{i} s\n"
        f"end\n" for i in range(k))
    observable = " ".join(f"o{i}" for i in range(k))
    return parse_model(f"{blocks}observable {observable}\nfaults\n")


def test_trace_in_model_does_not_grow_with_shared_nondeterminism():
    # 2^12 global states follow each tick; a replay over global states took
    # 35 s on this word, the per-component replay well under a millisecond
    model = _ticking(12)
    word = ["tick"] * 6 + ["o0"] + ["tick"] * 3
    t0 = time.perf_counter()
    assert trace_in_model(word, model)
    assert not trace_in_model(["tick"] * 6 + ["o0", "o0"], model)
    assert time.perf_counter() - t0 < 1.0
    small = _ticking(4)
    assert trace_in_model(word, small) == global_replay(word, small)


def test_trace_hypothesis(oneshot):
    sq = oneshot.space(SQHS)
    assert trace_hypothesis(["f", "o1"], oneshot, sq) == seq_hyp(["f"])
    assert trace_hypothesis(["o1"], oneshot, oneshot.space(SHS)) == set_hyp([])
    model = parse_model(
        "component c\nstates s\ninit s\ntrans s f1 s\ntrans s f2 s\n"
        "trans s f3 s\ntrans s o s\nend\nobservable o\nfaults f1 f2 f3\n")
    got = trace_hypothesis(["f1", "f2", "f1"], model, model.space(MHS))
    assert got == multi_hyp({"f1": 2, "f2": 1})
    # the set, the counts or the word itself of the trace's fault word
    rng = random.Random(3)
    for _ in range(100):
        trace = [rng.choice(model.events) for _ in range(rng.randrange(8))]
        word = [e for e in trace if e in model.faults]
        assert trace_hypothesis(trace, model, model.space(SHS)) == \
            set_hyp(word)
        assert trace_hypothesis(trace, model, model.space(MHS)) == \
            multi_hyp({f: word.count(f) for f in model.faults})
        assert trace_hypothesis(trace, model, model.space(SQHS)) == \
            seq_hyp(word)
        # and what extending h0 fault by fault gives
        for kind in (SHS, MHS, SQHS):
            space = model.space(kind)
            assert trace_hypothesis(trace, model, space) == \
                reduce(extend, word, space.h0)


def test_trace_matches_observation(oneshot):
    obs = Observation(("o1",))
    assert trace_matches_observation(["f", "o1"], oneshot, obs)
    assert not trace_matches_observation(["o1", "o1"], oneshot, obs)
    assert trace_matches_observation([], oneshot, Observation(()))


def test_observation_is_stored_as_a_tuple(oneshot):
    obs = Observation(["o1"])
    assert obs.sequence == ("o1",)
    assert trace_matches_observation(["f", "o1"], oneshot, obs)


@pytest.mark.parametrize("events, bad", [
    (("nosuch",), "nosuch"), (("f",), "f"), (("o1", "q0", "f"), "q0")])
def test_check_observation_names_the_first_unobservable_event(oneshot, events,
                                                              bad):
    oneshot.check_observation(Observation(("o1", "o1")))
    with pytest.raises(ModelFormatError, match=f"event '{bad}' is not"):
        oneshot.check_observation(Observation(events))


def reference_step(model, gstate, event):
    """``DesModel.step`` by its definition: each component with ``event``
    in its alphabet takes one of its ``event`` transitions from its local
    state, in ``trans`` order, and every other component stays put."""
    choices = []
    for comp, local in zip(model.components, gstate):
        if any(e == event for _, e, _ in comp.trans):
            choices.append([t for s, e, t in comp.trans
                            if s == local and e == event])
        else:
            choices.append([local])
    return [tuple(combo) for combo in itertools.product(*choices)]


def test_step_from_the_move_tables_follows_the_definition():
    checked = 0
    for model, _ in faulty_instances(11, 30):
        frontier = model.initial_global_states()
        reached = set(frontier)
        while frontier:
            gstate = frontier.pop()
            for e in model.events:
                succs = reference_step(model, gstate, e)
                assert model.step(gstate, e) == succs, (gstate, e)
                checked += 1
                for gstate2 in succs:
                    if gstate2 not in reached:
                        reached.add(gstate2)
                        frontier.append(gstate2)
    assert checked > 300


def test_synchronisation_blocks_without_local_transition():
    # both components know "sync"; second only allows it from s1
    text = ("component a\nstates a0 a1\ninit a0\ntrans a0 sync a1\nend\n"
            "component b\nstates b0 b1\ninit b0\ntrans b0 u b1\n"
            "trans b1 sync b1\nend\n"
            "observable sync\nfaults u\n")
    model = parse_model(text)
    assert not trace_in_model(["sync"], model)
    assert trace_in_model(["u", "sync"], model)


def test_multiple_initial_states():
    text = ("component a\nstates a0 a1 a2\ninit a0 a1\n"
            "trans a1 o a2\nend\nobservable o\nfaults\n")
    model = parse_model(text)
    assert model.components[0].init == ("a0", "a1")
    assert trace_in_model(["o"], model)
    assert trace_in_model([], model)


def _project(trace, alphabet):
    return [e for e in trace if e in alphabet]


def test_random_walks_stay_in_model():
    rng = random.Random(2)
    text = ("component a\nstates a0 a1\ninit a0\ntrans a0 x a1\n"
            "trans a1 y a0\nend\n"
            "component b\nstates b0 b1\ninit b0\ntrans b0 y b1\n"
            "trans b1 z b0\nend\n"
            "observable x z\nfaults y\n")
    model = parse_model(text)
    for _ in range(1000):
        walk = random_walk(model, rng, rng.randrange(8))
        assert trace_in_model(walk, model)
        # synchronisation consistency: each per-component projection replays
        for comp in model.components:
            local = set(comp.init)
            for e in _project(walk, comp.alphabet):
                local = {t for s in local for t in comp.moves(s, e)}
            assert local
