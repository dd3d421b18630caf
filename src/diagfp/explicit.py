"""Exact test solver by explicit-state search.

The product graph of the observed model has a node per (global state,
observation tracker) pair reachable from an initial state.  It is built once
per ``ExplicitSolver``, on its first test, and shared by all its tests; the
oracles build the same graph.  Its nodes are numbered in BFS order, and each
keeps only its live edges, as ``(event, target id, is_fault)``: those into
nodes from which the observation can still complete.  Only live initial
nodes are kept too.  Nothing reachable from a dead node is a goal, so the
witness found is unchanged.

A test searches that graph times a per-space summary of the fault behaviour
seen so far (fault set / saturated counts / per-anchor subsequence monitors),
which tracks only what the test's properties read.  Each test numbers the
summaries it meets and memoises, per summary and fault event, the summary
that follows, or that the one that follows, joined with the anchors its
``desc`` properties force on every goal, violates a monotone property
(``neg_desc`` or ``anc``).  That join only grows along a trace, so no goal
lies beyond such a violation, and the search does not go there.  A search
node is one integer made of its graph node, summary and observation gap; the
search expands the nodes that consumed the most observation first, so a
satisfiable test dives to the observation's end (best-first, after Hart,
Nilsson & Raphael, 1968).  A goal has consumed the whole observation and
satisfies every requested property; that check is made once per summary.
Exhaustion yields as conflict the properties that cut the search (see
:class:`_Summary`), after the conflict-based DES diagnosis of Grastien,
Haslum & Thiébaux (KR 2012).

The same graph serves the brute-force oracle for minimal diagnoses and the
horizon-fit certificate used to compare against the bounded SAT backend.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .contract import SolverStats, TestOutcome, TestRequest
from .desmodel import (DesModel, Observation, trace_hypothesis,
                       trace_in_model, trace_matches_observation)
from .errors import (DiagError, SpaceMismatchError, StateBudgetExceeded,
                     check_count)
from .hypothesis import MHS, SHS, SQHS, Space, extend, leq, min_antichain
from .properties import DESC_KINDS, POSITIVE_KINDS, member

DEFAULT_STATE_BUDGET = 5_000_000


def _check_input(model: DesModel, obs: Observation, space: Space,
                 state_budget) -> None:
    """Reject a bad state budget, a space the model does not handle and an
    observation of an event the model does not observe."""
    check_count("state_budget", state_budget)
    model.check_space(space)
    model.check_observation(obs)


# ----------------------------------------------------------- fault summary

_CUT = -1  # the summary that follows violates a monotone property


class _Summary:
    """Numbers the fault summaries one test meets; a summary tracks just
    enough about past fault events to decide the test's properties.

    Each property is kept as ``(is_desc, positive, arg)``: the summary
    decides desc or anc of the anchor, and the property holds when that
    answer equals ``positive``.  ``arg`` is the anchor's fault set (SHS),
    its count of each fault (MHS) or its length (SqHS).  When every property
    is desc-kind, desc of an anchor reads only the faults it names, up to
    the counts it names: an SHS summary keeps only the faults some anchor
    names (``tracked``), and MHS counts saturate at the largest count an
    anchor names (``caps``).  Anc of an anchor reads every fault, and needs
    to tell a count one past the anchor's.

    A summary only grows along a trace: SHS sets grow, MHS counts grow and
    saturate at ``caps``, and per SqHS anchor the desc embedding index rises
    while an anc position that turns -1 stays -1.  So once desc of an anchor
    holds it holds for good, and once anc fails it fails for good: a
    ``NEG_DESC`` or ``ANC`` property (``monotone``) that a summary violates
    stays violated on every extension of its trace.  On SHS and MHS every
    goal summary also holds each ``DESC`` anchor (``desc``), so a summary is
    cut when its ``join`` with them (union or pointwise maximum) violates a
    monotone property.  The join grows along a trace too, so the summaries
    that follow a cut one are cut as well.

    Summary ids index ``values``; the initial summary is id 0, and ``ids``
    maps each summary met to its id, or to ``_CUT`` when it violates a
    monotone property.  ``follow[sid]`` memoises, per fault, the id of the
    summary after it; ``goal[sid]`` whether the summary satisfies every
    property (None until asked).  A numbered summary satisfies every
    monotone property, so the goal check reads the ``others`` only.  Every
    property found to cut a summary, monotone or not, is added to
    ``conflict``; with a cut that needed the join, so are the desc
    properties that supplied it, so that a search on the conflict alone
    makes the same cut.
    """

    def __init__(self, space: Space, props, conflict: set):
        self.space = space
        self.faults = space.faults
        reads_anc = any(p.kind not in DESC_KINDS for p in props)
        if space.kind == SHS:
            args = [p.anchor.data for p in props]
            self.tracked = (frozenset(self.faults) if reads_anc
                            else frozenset().union(*args))
        elif space.kind == MHS:
            args = [tuple(p.anchor.count(f) for f in self.faults)
                    for p in props]
            self.caps = tuple(max([need[i] for need in args], default=0)
                              + reads_anc for i in range(len(self.faults)))
        else:
            self.anchors = [p.anchor.data for p in props]
            args = [len(anchor) for anchor in self.anchors]
        self.checks = [(p.kind in DESC_KINDS, p.kind in POSITIVE_KINDS,
                        arg) for p, arg in zip(props, args)]
        self.monotone = [i for i, (is_desc, positive, _)
                         in enumerate(self.checks) if is_desc != positive]
        self.others = [i for i, (is_desc, positive, _)
                       in enumerate(self.checks) if is_desc == positive]
        self.desc = [i for i in self.others if self.checks[i][0]
                     and space.kind != SQHS]
        self.conflict = conflict
        start = self.initial()
        self.values = [start]
        self.ids = {start: 0}
        self.follow = [{}]
        self.goal = [None]
        # does the search enter the initial summary at all
        self.live = not self._cut(start)

    def initial(self):
        if self.space.kind == SHS:
            return frozenset()
        if self.space.kind == MHS:
            return (0,) * len(self.faults)
        # per anchor: (desc embedding index, anc leftmost position or -1)
        return tuple((0, 0) for _ in self.anchors)

    def after(self, summary, fault):
        if self.space.kind == SHS:
            return summary | {fault} if fault in self.tracked else summary
        if self.space.kind == MHS:
            i = self.faults.index(fault)
            counts = list(summary)
            if counts[i] < self.caps[i]:
                counts[i] += 1
            return tuple(counts)
        out = []
        for (didx, apos), anchor in zip(summary, self.anchors):
            if didx < len(anchor) and anchor[didx] == fault:
                didx += 1
            if apos >= 0:
                nxt = -1
                for q in range(apos, len(anchor)):
                    if anchor[q] == fault:
                        nxt = q + 1
                        break
                apos = nxt
            out.append((didx, apos))
        return tuple(out)

    def first_failure(self, summary, indices):
        """Index of the first property, among ``indices``, that ``summary``
        fails; None when it satisfies them all."""
        kind = self.space.kind
        for i in indices:
            is_desc, positive, arg = self.checks[i]
            if kind == SHS:
                holds = arg <= summary if is_desc else summary <= arg
            elif kind == MHS:
                if is_desc:
                    holds = all(c >= n for c, n in zip(summary, arg))
                else:
                    holds = all(c <= n for c, n in zip(summary, arg))
            else:
                didx, apos = summary[i]
                holds = didx == arg if is_desc else apos >= 0
            if holds != positive:
                return i
        return None

    def join(self, summary):
        """``summary`` joined with the desc anchors: their union (SHS) or
        pointwise maximum (MHS)."""
        for i in self.desc:
            arg = self.checks[i][2]
            summary = (summary | arg if self.space.kind == SHS
                       else tuple(map(max, summary, arg)))
        return summary

    def _cuts(self, summary, indices) -> bool:
        cut = self.first_failure(summary, indices)
        if cut is None:
            return False
        self.conflict.add(cut)
        return True

    def _cut(self, summary) -> bool:
        """Does ``summary``, joined with the desc anchors, violate a
        monotone property?  The conflict gets the first one ``summary``
        violates alone, else the first the join violates and the desc
        properties ``summary`` does not hold, whose anchors the join adds."""
        cut = self.first_failure(self.join(summary), self.monotone)
        if cut is None or self._cuts(summary, self.monotone):
            return cut is not None
        self.conflict.update([i for i in self.desc if self.first_failure(
            summary, (i,)) is not None], (cut,))
        return True

    def advance(self, sid: int, fault) -> int:
        """Id of the summary after ``fault`` from summary ``sid``, or
        ``_CUT``; stores it in ``follow[sid]``."""
        summary = self.after(self.values[sid], fault)
        nxt = self.ids.get(summary)
        if nxt is None:
            if self._cut(summary):
                nxt = _CUT
            else:
                nxt = len(self.values)
                self.values.append(summary)
                self.follow.append({})
                self.goal.append(None)
            self.ids[summary] = nxt
        self.follow[sid][fault] = nxt
        return nxt

    def is_goal(self, sid: int) -> bool:
        """Does summary ``sid`` satisfy every property?"""
        ok = self.goal[sid]
        if ok is None:
            ok = self.goal[sid] = not self._cuts(self.values[sid],
                                                 self.others)
        return ok


# ------------------------------------------------------------------ graph

class _Graph(NamedTuple):
    """The live product graph of an observed model (see the module
    docstring); node ids number its nodes in BFS order."""

    initial: list   # ids of the live initial nodes
    tracker: list   # node id -> observed events consumed
    edges: list     # node id -> live edges as (event, target id, is_fault)
    nodes: list     # node id -> (global state, tracker)


def _product_graph(model: DesModel, obs: Observation,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> _Graph:
    """Live (global state, tracker) graph of the observed model.

    ``nodes`` lists every forward-reachable node, so its length is the size
    of the product; ``initial`` and the edge lists keep, in BFS order, only
    the nodes from which the observation can still complete."""
    want = obs.sequence
    end = len(want)
    observable = frozenset(model.observable)
    faults = frozenset(model.faults)
    kinds = [(e, e in observable, e in faults) for e in model.events]
    step = model.step
    # global state -> (event, is_observable, is_fault, targets) per event
    # it enables; a global state recurs once per tracker value
    moves = {}
    ids, nodes = {}, []
    for gstate in model.initial_global_states():
        if (gstate, 0) not in ids:
            ids[gstate, 0] = len(nodes)
            nodes.append((gstate, 0))
    n_initial = len(nodes)
    out_edges = []
    for gstate, tracker in nodes:   # grows as nodes are found: the BFS queue
        expect = want[tracker] if tracker < end else None
        enabled = moves.get(gstate)
        if enabled is None:
            enabled = moves[gstate] = []
            for e, is_observable, is_fault in kinds:
                targets = step(gstate, e)
                if targets:
                    enabled.append((e, is_observable, is_fault, targets))
        out = []
        for e, is_observable, is_fault, targets in enabled:
            if is_observable:
                if e != expect:
                    continue
                tracker2 = tracker + 1
            else:
                tracker2 = tracker
            for gstate2 in targets:
                node2 = (gstate2, tracker2)
                nid2 = ids.get(node2)
                if nid2 is None:
                    nid2 = ids[node2] = len(nodes)
                    nodes.append(node2)
                out.append((e, nid2, is_fault))
        out_edges.append(out)
        if len(nodes) > state_budget:
            raise StateBudgetExceeded(
                f"product graph exceeded {state_budget} states")
    preds = [[] for _ in nodes]
    for nid, out in enumerate(out_edges):
        for _, nid2, _ in out:
            preds[nid2].append(nid)
    tracker = [t for _, t in nodes]
    live = [t == end for t in tracker]
    stack = [nid for nid, done in enumerate(live) if done]
    while stack:
        for prev in preds[stack.pop()]:
            if not live[prev]:
                live[prev] = True
                stack.append(prev)
    return _Graph(
        [nid for nid in range(n_initial) if live[nid]], tracker,
        [tuple(edge for edge in out if live[edge[1]]) for out in out_edges],
        nodes)


# ------------------------------------------------------------------ search

def _search(graph: _Graph, end: int, space: Space, props,
            state_budget: int, gap_caps=None,
            stats: SolverStats | None = None, conflict: set | None = None):
    """Core search over ``graph`` for a goal at tracker ``end``; returns a
    witness trace or None.

    A search node is a graph node, a summary id of :class:`_Summary` and
    an observation gap, kept as the one integer
    ``(summary * gaps + gap) * len(nodes) + node``.  Each tracker value has
    a FIFO queue, and the highest non-empty one is expanded next: a failed
    test enters the same nodes in any order, and a satisfiable one reaches
    the observation's end without expanding every shallower node first.
    The graph holds live edges only, and the search enters no summary that
    ``_Summary`` cuts: no goal lies beyond either, and every node beyond
    one is pruned too.  So the nodes it enters keep the order and parents
    they have in the same search over the whole product of graph and
    summaries, hence the witness.
    Only fault edges change the summary, so only they look up the next
    summary, in ``_Summary.follow``; a goal is checked once per summary.

    When the search exhausts, ``conflict`` (if given) receives the index of
    every property that cut it: each pruned summary's first violated
    monotone property, and the first failing property of each summary met
    at an observation-complete node.  A search on those properties alone
    tracks their part of each summary only, and prunes and rejects the same
    nodes, so it finds no goal either.

    ``gap_caps`` = (per-gap cap, trailing cap) restricts the number of
    unobservable events per observation gap, which certifies that a witness
    fits the SAT backend's pinned-timestep shape.
    """
    if conflict is None:
        conflict = set()
    summary = _Summary(space, props, conflict)
    follow, advance, is_goal = summary.follow, summary.advance, \
        summary.is_goal
    tracker, edges = graph.tracker, graph.edges
    size = len(tracker)
    gaps = 1 if gap_caps is None else max(gap_caps) + 1

    start = graph.initial if summary.live else []
    parent = dict.fromkeys(start)       # start ids are their own keys
    queues = [deque() for _ in range(end + 1)]
    queues[0].extend((nid, nid, 0, 0) for nid in start)
    top = 0
    visited = len(parent)
    expanded = 0

    goal = next((nid for nid in start
                 if tracker[nid] == end and is_goal(0)), None)
    while goal is None:
        while top and not queues[top]:
            top -= 1
        if not queues[top]:
            break
        key, nid, sid, gap = queues[top].popleft()
        expanded += 1
        follows = follow[sid]
        here = tracker[nid]
        for e, nid2, is_fault in edges[nid]:
            # the gap restarts exactly on the edges that advance the tracker
            gap2 = 0
            if gap_caps is not None and tracker[nid2] == here:
                gap2 = gap + 1
                if gap2 > gap_caps[0 if here < end else 1]:
                    continue
            sid2 = sid
            if is_fault:
                sid2 = follows.get(e)
                if sid2 is None:
                    sid2 = advance(sid, e)
                if sid2 == _CUT:
                    continue
            key2 = (sid2 * gaps + gap2) * size + nid2
            if key2 in parent:
                continue
            parent[key2] = (key, e)
            visited += 1
            if visited > state_budget:
                raise StateBudgetExceeded(
                    f"explicit search exceeded {state_budget} states")
            here2 = tracker[nid2]
            if here2 == end and is_goal(sid2):
                goal = key2
                break
            queues[here2].append((key2, nid2, sid2, gap2))
            if here2 > top:
                top = here2

    if stats is not None:
        stats.extra["visited"] = stats.extra.get("visited", 0) + visited
        stats.extra["expanded"] = stats.extra.get("expanded", 0) + expanded
    if goal is None:
        return None
    trace = []
    back = parent[goal]
    while back is not None:
        key, e = back
        trace.append(e)
        back = parent[key]
    trace.reverse()
    return tuple(trace)


def solve(model: DesModel, obs: Observation, request: TestRequest,
          graph: _Graph, state_budget: int = DEFAULT_STATE_BUDGET,
          stats: SolverStats | None = None) -> TestOutcome:
    """Decide a property-represented test exactly; ``graph`` is the
    ``_product_graph`` of ``model`` and ``obs``, whose inputs
    :class:`ExplicitSolver` checks once, when it is made.  The witness is
    re-validated against the model, not the graph.  A failed test's
    conflict is the sub-tuple of the request, in request order, of the
    properties that cut the search (see :func:`_search`)."""
    space = request.space
    check_count("state_budget", state_budget)
    cut = set()
    trace = _search(graph, len(obs), space, request.props, state_budget,
                    stats=stats, conflict=cut)
    if trace is None:
        return TestOutcome.failed(tuple(p for i, p in enumerate(request.props)
                                        if i in cut))
    hyp = trace_hypothesis(trace, model, space)
    if not (trace_in_model(trace, model)
            and trace_matches_observation(trace, model, obs)
            and member(hyp, request.props, space)):
        raise DiagError("explicit solver produced an invalid witness")
    return TestOutcome.found(hyp, trace)


def fits_horizon(model: DesModel, obs: Observation, request: TestRequest,
                 steps_per_obs: int,
                 state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Is there a witness that fits the SAT shape at this steps-per-obs bound?

    The certificate schedules one event per timestep: at most
    ``steps_per_obs - 1`` unobservable events per observation gap and at most
    ``steps_per_obs`` after the final observation.
    """
    _check_input(model, obs, request.space, state_budget)
    check_count("steps_per_obs", steps_per_obs)
    caps = (steps_per_obs - 1, steps_per_obs)
    graph = _product_graph(model, obs, state_budget)
    trace = _search(graph, len(obs), request.space, request.props,
                    state_budget, gap_caps=caps)
    return trace is not None


# ------------------------------------------------------------------ oracle

def certified_bound(model: DesModel, obs: Observation) -> int:
    """Trace-length bound sufficient for the minimal diagnosis: loop-free
    witnesses exist for every minimal candidate."""
    prod = 1
    for comp in model.components:
        prod *= len(comp.states)
    return (prod + 1) * (len(obs) + 1)


def _observed_hyps(graph: _Graph, end: int, space: Space, bound: int,
                   state_budget: int, admit, expand):
    """Breadth-first search of (graph node, hypothesis of the fault word so
    far) pairs over ``graph``, to depth ``bound``; yields the hypothesis of
    each new pair whose node has consumed the whole observation (tracker
    ``end``).

    A pair whose hypothesis fails ``admit`` is not entered, and one whose
    hypothesis fails ``expand`` is not expanded.  ``expand`` runs when the
    pair is popped, after the caller has consumed every earlier yield.
    """
    tracker, edges = graph.tracker, graph.edges
    start = [(nid, space.h0) for nid in graph.initial]
    seen = set(start)
    queue = deque((node, 0) for node in start)
    for nid, hyp in start:
        if tracker[nid] == end:
            yield hyp
    while queue:
        (nid, hyp), depth = queue.popleft()
        if depth >= bound or not expand(hyp):
            continue
        for e, nid2, is_fault in edges[nid]:
            hyp2 = hyp
            if is_fault:
                hyp2 = extend(hyp, e)
                if not admit(hyp2):
                    continue
            node2 = (nid2, hyp2)
            if node2 in seen:
                continue
            seen.add(node2)
            if len(seen) > state_budget:
                raise StateBudgetExceeded(
                    f"oracle exceeded {state_budget} states")
            if tracker[nid2] == end:
                yield hyp2
            queue.append((node2, depth + 1))


def oracle_diagnose(model: DesModel, obs: Observation, space: Space,
                    state_budget: int = DEFAULT_STATE_BUDGET) -> list:
    """Reference minimal diagnosis by exhaustive search.

    Explores (graph node, accumulated hypothesis) pairs breadth first, to
    the depth of the number of reachable (global state, tracker) nodes:
    every minimal candidate has a witness that is loop-free in that
    product, so the search is complete.  A node whose hypothesis already
    dominates a discovered candidate cannot contribute a new minimal
    candidate and is not expanded.
    """
    _check_input(model, obs, space, state_budget)
    graph = _product_graph(model, obs, state_budget)
    found = []
    for hyp in _observed_hyps(
            graph, len(obs), space, len(graph.nodes), state_budget,
            admit=lambda hyp: True,
            expand=lambda hyp: not any(leq(c, hyp, space) for c in found)):
        if hyp not in found:
            found.append(hyp)
    return min_antichain(found, space)


def oracle_candidates(model: DesModel, obs: Observation, space: Space,
                      max_faults: int,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> set:
    """All diagnosis candidates with a witness of at most ``max_faults``
    fault events.

    Complete for that slice: the fault-free stretches of such a witness can
    be made loop-free in the (global state, tracker) product, which already
    counts the observation, so with k fault events it has depth at most
    (k+1) * |product| + k, and the search goes to depth
    ``(max_faults + 1) * (|product| + 1)``.
    """
    _check_input(model, obs, space, state_budget)
    graph = _product_graph(model, obs, state_budget)
    bound = (max_faults + 1) * (len(graph.nodes) + 1)
    # an SHS hypothesis does not count repeated faults, so none is cut
    return set(_observed_hyps(
        graph, len(obs), space, bound, state_budget,
        admit=lambda hyp: space.kind == SHS or hyp.size() <= max_faults,
        expand=lambda hyp: True))


class ExplicitSolver:
    """Test-solver contract implementation backed by the search.  The
    first test builds the product graph, which no request changes; every
    test searches it."""

    name = "explicit"

    def __init__(self, model: DesModel, obs: Observation, space: Space,
                 state_budget: int = DEFAULT_STATE_BUDGET):
        _check_input(model, obs, space, state_budget)
        self.model = model
        self.obs = obs
        self.space = space
        self.state_budget = state_budget
        self.stats = SolverStats()
        self._graph = None

    def solve(self, request: TestRequest) -> TestOutcome:
        if request.space != self.space:
            raise SpaceMismatchError(
                f"request for {request.space} sent to a solver of {self.space}")
        if self._graph is None:
            self._graph = _product_graph(self.model, self.obs,
                                         self.state_budget)
        return solve(self.model, self.obs, request, self._graph,
                     self.state_budget, self.stats)
