"""Exact test solver by explicit-state breadth-first search.

The (global state, observation tracker) product graph of the observed model
is built once per ``ExplicitSolver``, on its first test, and shared by all
its tests; the oracle builds the same graph.  A test searches that graph
times a per-space summary of the fault behaviour seen so far (fault set /
saturated counts / per-anchor subsequence monitors).  A goal state has
consumed the whole observation and satisfies every requested property.  The
graph keeps only live edges, those into nodes from which the observation can
still complete, and only live initial nodes: nothing reachable from a dead
node is a goal, so the witness found is unchanged.  The search also
enters no node that violates a monotone property (``neg_desc`` or ``anc``):
a fault summary only grows along a trace, so no goal lies beyond it.
Exhaustion yields as conflict the properties that cut the search: the first
violated monotone property of each pruned node and the first failing
property of each node that consumed the observation, after the
conflict-based DES diagnosis of Grastien, Haslum & Thiébaux (KR 2012).

The same machinery provides the brute-force oracle for minimal diagnoses and
the horizon-fit certificate used to compare against the bounded SAT backend.
"""

from __future__ import annotations

from collections import deque

from .contract import SolverStats, TestOutcome, TestRequest
from .desmodel import (DesModel, Observation, trace_hypothesis,
                       trace_in_model, trace_matches_observation)
from .errors import DiagError, SpaceMismatchError, StateBudgetExceeded
from .hypothesis import MHS, SHS, Space, extend, leq, min_antichain
from .properties import DESC_KINDS, POSITIVE_KINDS, member

DEFAULT_STATE_BUDGET = 5_000_000


# ----------------------------------------------------------- fault summary

class _Summary:
    """Tracks just enough about past fault events to decide the properties.

    Each property is kept as ``(is_desc, positive, arg)``: the summary
    decides desc or anc of the anchor, and the property holds when that
    answer equals ``positive``.  ``arg`` is the anchor's fault set (SHS),
    its count of each fault (MHS) or its length (SqHS).

    A summary only grows along a trace: SHS sets grow, MHS counts grow and
    saturate at ``caps``, and per SqHS anchor the desc embedding index rises
    while an anc position that turns -1 stays -1.  So once desc of an anchor
    holds it holds for good, and once anc fails it fails for good: a
    ``NEG_DESC`` or ``ANC`` property (``monotone``) that a summary violates
    stays violated on every extension of its trace.
    """

    def __init__(self, space: Space, props):
        self.space = space
        self.faults = space.faults
        if space.kind == SHS:
            args = [p.anchor.data for p in props]
        elif space.kind == MHS:
            args = [tuple(p.anchor.count(f) for f in self.faults)
                    for p in props]
            self.caps = tuple(max([need[i] for need in args], default=0) + 1
                              for i in range(len(self.faults)))
        else:
            self.anchors = [p.anchor.data for p in props]
            args = [len(anchor) for anchor in self.anchors]
        self.checks = [(p.kind in DESC_KINDS, p.kind in POSITIVE_KINDS,
                        arg) for p, arg in zip(props, args)]
        self.monotone = [i for i, (is_desc, positive, _)
                         in enumerate(self.checks) if is_desc != positive]

    def initial(self):
        if self.space.kind == SHS:
            return frozenset()
        if self.space.kind == MHS:
            return (0,) * len(self.faults)
        # per anchor: (desc embedding index, anc leftmost position or -1)
        return tuple((0, 0) for _ in self.anchors)

    def after(self, summary, fault):
        if self.space.kind == SHS:
            return summary | {fault}
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

    def first_failure(self, summary, indices=None):
        """Index of the first property, among ``indices`` (default: all),
        that ``summary`` fails; None when it satisfies them all."""
        kind = self.space.kind
        if indices is None:
            indices = range(len(self.checks))
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


# ------------------------------------------------------------------ search

def _search(model: DesModel, obs: Observation, space: Space, props,
            state_budget: int, graph=None, gap_caps=None,
            stats: SolverStats | None = None, conflict: set | None = None):
    """Core BFS over ``graph`` (built here when None); returns a witness
    trace or None.

    A node is ``((global state, tracker), summary, gap)``.  The graph holds
    live edges only, and the search enters no node whose summary violates a
    monotone property (see :class:`_Summary`): no goal lies beyond either.
    The nodes it enters keep the BFS order and parents they have in the
    whole product, hence the witness.  Only fault edges change the summary,
    so only they are checked, once per distinct summary.

    When the search exhausts, ``conflict`` (if given) receives the index of
    every property that cut it: each pruned node's first violated monotone
    property, and each observation-complete node's first failing property.
    A search on those properties alone tracks their part of each summary
    only, and prunes and rejects the same nodes, so it finds no goal either.

    ``gap_caps`` = (per-gap cap, trailing cap) restricts the number of
    unobservable events per observation gap, which certifies that a witness
    fits the SAT backend's pinned-timestep shape.
    """
    model.check_space(space)
    if graph is None:
        graph = _product_graph(model, obs, state_budget)
    initial, succs = graph
    summary = _Summary(space, props)
    end = len(obs)
    faults = frozenset(model.faults)
    if conflict is None:
        conflict = set()
    # summary -> first violated monotone property, and summary -> first
    # failing property (None: none fails)
    violated, failing = {}, {}

    def first_cut(memo, summ, indices=None):
        """Decide ``summ`` once per memo; record what cuts it."""
        if summ not in memo:
            memo[summ] = cut = summary.first_failure(summ, indices)
            if cut is not None:
                conflict.add(cut)
        return memo[summ]

    def enters(summ):
        return first_cut(violated, summ, summary.monotone) is None

    def is_goal(node):
        return node[0][1] == end and first_cut(failing, node[1]) is None

    start = summary.initial()
    start_nodes = ([(node, start, 0) for node in initial]
                   if enters(start) else [])
    parent = {node: None for node in start_nodes}
    queue = deque(start_nodes)
    visited = len(parent)
    expanded = 0

    goal = next((node for node in start_nodes if is_goal(node)), None)
    while queue and goal is None:
        node = queue.popleft()
        expanded += 1
        pnode, summ, gap = node
        tracker = pnode[1]
        for e, pnode2 in succs[pnode]:
            # the gap restarts exactly on the edges that advance the tracker
            gap2 = 0
            if gap_caps is not None and pnode2[1] == tracker:
                gap2 = gap + 1
                if gap2 > gap_caps[0 if tracker < end else 1]:
                    continue
            summ2 = summ
            if e in faults:
                summ2 = summary.after(summ, e)
                if not enters(summ2):
                    continue
            node2 = (pnode2, summ2, gap2)
            if node2 in parent:
                continue
            parent[node2] = (node, e)
            visited += 1
            if visited > state_budget:
                raise StateBudgetExceeded(
                    f"explicit search exceeded {state_budget} states")
            if is_goal(node2):
                goal = node2
                break
            queue.append(node2)

    if stats is not None:
        stats.extra["visited"] = stats.extra.get("visited", 0) + visited
        stats.extra["expanded"] = stats.extra.get("expanded", 0) + expanded
    if goal is None:
        return None
    trace = []
    node = goal
    while parent[node] is not None:
        node, e = parent[node]
        trace.append(e)
    trace.reverse()
    return tuple(trace)


def solve(model: DesModel, obs: Observation, request: TestRequest,
          state_budget: int = DEFAULT_STATE_BUDGET,
          stats: SolverStats | None = None, graph=None) -> TestOutcome:
    """Decide a property-represented test exactly; ``graph`` is the
    ``_product_graph`` of ``model`` and ``obs``, built here when None.  The
    witness is re-validated against the model, not the graph.  A failed
    test's conflict is the sub-tuple of the request, in request order, of
    the properties that cut the search (see :func:`_search`)."""
    space = request.space
    cut = set()
    trace = _search(model, obs, space, request.props, state_budget, graph,
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
    caps = (steps_per_obs - 1, steps_per_obs)
    trace = _search(model, obs, request.space, request.props,
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


def _product_graph(model: DesModel, obs: Observation,
                   state_budget: int = DEFAULT_STATE_BUDGET):
    """Live (global state, tracker) graph of the observed model.

    Returns ``(initial, succs)``.  ``succs`` has a key for every
    forward-reachable node, so ``len(succs)`` is the size of the product;
    its successor lists and ``initial`` keep, in BFS order, only the nodes
    from which the observation can still complete."""
    want = obs.sequence
    events = model.events
    observable = frozenset(model.observable)
    initial = [(g, 0) for g in model.initial_global_states()]
    succs, preds = {}, {}
    queue = deque(initial)
    seen = set(initial)
    while queue:
        gstate, tracker = queue.popleft()
        out = []
        for e in events:
            if e in observable:
                if tracker >= len(want) or want[tracker] != e:
                    continue
                tracker2 = tracker + 1
            else:
                tracker2 = tracker
            for gstate2 in model.step(gstate, e):
                node2 = (gstate2, tracker2)
                out.append((e, node2))
                preds.setdefault(node2, []).append((gstate, tracker))
                if node2 not in seen:
                    seen.add(node2)
                    queue.append(node2)
        succs[(gstate, tracker)] = out
        if len(seen) > state_budget:
            raise StateBudgetExceeded(
                f"product graph exceeded {state_budget} states")
    co_reach = {node for node in succs if node[1] == len(want)}
    queue = deque(co_reach)
    while queue:
        node = queue.popleft()
        for prev in preds.get(node, ()):
            if prev not in co_reach:
                co_reach.add(prev)
                queue.append(prev)
    for node, out in succs.items():
        succs[node] = [edge for edge in out if edge[1] in co_reach]
    return [node for node in initial if node in co_reach], succs


def _observed_hyps(model: DesModel, obs: Observation, space: Space, graph,
                   bound: int, state_budget: int, admit, expand):
    """Breadth-first search of (global state, tracker, hypothesis of the
    fault word so far) triples over ``graph``, to depth ``bound``; yields the
    hypothesis of each new triple that has consumed the whole observation.

    A triple whose hypothesis fails ``admit`` is not entered, and one whose
    hypothesis fails ``expand`` is not expanded.  ``expand`` runs when the
    triple is popped, after the caller has consumed every earlier yield.
    """
    initial, succs = graph
    end = len(obs)
    faults = frozenset(model.faults)
    start = [(g, tracker, space.h0) for g, tracker in initial]
    seen = set(start)
    queue = deque((node, 0) for node in start)
    for g, tracker, hyp in start:
        if tracker == end:
            yield hyp
    while queue:
        (gstate, tracker, hyp), depth = queue.popleft()
        if depth >= bound or not expand(hyp):
            continue
        for e, (gstate2, tracker2) in succs[(gstate, tracker)]:
            hyp2 = hyp
            if e in faults:
                hyp2 = extend(hyp, e)
                if not admit(hyp2):
                    continue
            node2 = (gstate2, tracker2, hyp2)
            if node2 in seen:
                continue
            seen.add(node2)
            if len(seen) > state_budget:
                raise StateBudgetExceeded(
                    f"oracle exceeded {state_budget} states")
            if tracker2 == end:
                yield hyp2
            queue.append((node2, depth + 1))


def oracle_diagnose(model: DesModel, obs: Observation, space: Space,
                    state_budget: int = DEFAULT_STATE_BUDGET) -> list:
    """Reference minimal diagnosis by exhaustive search.

    Explores (global state, tracker, accumulated hypothesis) triples breadth
    first, to the depth of the number of reachable (global state, tracker)
    nodes: every minimal candidate has a witness that is loop-free in that
    product, so the search is complete.  A node whose hypothesis already
    dominates a discovered candidate cannot contribute a new minimal
    candidate and is not expanded.
    """
    model.check_space(space)
    graph = _product_graph(model, obs, state_budget)
    found = []
    for hyp in _observed_hyps(
            model, obs, space, graph, len(graph[1]), state_budget,
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
    model.check_space(space)
    graph = _product_graph(model, obs, state_budget)
    bound = (max_faults + 1) * (len(graph[1]) + 1)
    # an SHS hypothesis does not count repeated faults, so none is cut
    return set(_observed_hyps(
        model, obs, space, graph, bound, state_budget,
        admit=lambda hyp: space.kind == SHS or hyp.size() <= max_faults,
        expand=lambda hyp: True))


class ExplicitSolver:
    """Test-solver contract implementation backed by the BFS search.  The
    first test builds the product graph, which no request changes; every
    test searches it."""

    name = "explicit"

    def __init__(self, model: DesModel, obs: Observation, space: Space,
                 state_budget: int = DEFAULT_STATE_BUDGET):
        model.check_space(space)
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
        return solve(self.model, self.obs, request, self.state_budget,
                     self.stats, self._graph)
