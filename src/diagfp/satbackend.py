"""Bounded-reachability SAT test solver for DES.

A behaviour of parallel length ``n`` is encoded with one block of variables
per timestep, constrained so that every solution decodes to a path of the
model that matches the observation.  The i-th observed event is pinned at
timestep ``steps_per_obs * i``; no other observable event occurs.  The
horizon is ``steps_per_obs * (|obs| + 1)``, leaving room for unobservable
behaviour after the final observation (and ``steps_per_obs`` steps when the
observation is empty).

The block of a timestep holds only what can still happen there
(:func:`encode_run`): an event variable for each event the observation
allows that the components can take from a state reachable one step
earlier, a literal for each reachable local state, and a transition
variable only where a component has a choice: one for each of its moves
when it has several for the same event there.  A component with exactly
two reachable local states has one variable, ``x`` for one state and
``-x`` for the other; any other has a variable per state.  The event's
variable stands for a component's lone move for that event.  An event
without a variable is false at that timestep, and every reader treats it
so (:func:`event_var`).

Each requested property is encoded behind its own assumption literal, so a
failed solve yields a conflict as the kernel's failed-assumption subset;
:class:`AssumptionSolver` holds that machinery for this frontend and the
circuit one.  Completeness is relative to the horizon: a Failed outcome
means "no witness within n timesteps".
"""

from __future__ import annotations

from dataclasses import dataclass

from .contract import SolverStats, TestOutcome, TestRequest
from .desmodel import (DesModel, Observation, trace_hypothesis,
                       trace_in_model, trace_matches_observation)
from .errors import EncodingError, SpaceMismatchError, check_count
from .hypothesis import MHS, SHS, SQHS, Space
from .properties import DESC_KINDS, POSITIVE_KINDS, Property, member
from .satcore import MiniSolver

_PAIRWISE_LIMIT = 8


@dataclass(frozen=True)
class EncodingParams:
    steps_per_obs: int = 7

    def __post_init__(self):
        check_count("steps_per_obs", self.steps_per_obs)

    def horizon(self, obs_len: int) -> int:
        return self.steps_per_obs * (obs_len + 1)


class Cnf:
    """Clause store; variables are numbered 1, 2, ... in creation order.

    A variable that encodings look up again is keyed by the tuple of values
    that define it: ``("e", event, t)`` (event at timestep ``t``; only
    :func:`encode_run` creates one, and an absent key means the event is
    false there), ``("occ", f)`` (``f`` occurs), ``("dh", p, t)`` and
    ``("ah", p, t)`` (the subsequence chains' columns, one per anchor prefix
    ``p``; MHS thresholds are the desc chains of ``(f,) * j``; a column that
    cannot change at ``t`` maps its key to the variable of ``t - 1``),
    ``("nofault", t)``, and for circuits ``("sig", signal)`` and
    ``("ab", gate)``.  Every other variable (local states, of which one
    stands for both states of a two-state component, the moves of a
    component that has several for one event, ladder, activation and
    circuit auxiliary literals) comes from :meth:`new` and is held only by
    its creator.
    """

    def __init__(self):
        self.nvars = 0
        self.index = {}
        self.clauses = []

    def new(self) -> int:
        self.nvars += 1
        return self.nvars

    def var(self, key: tuple) -> int:
        idx = self.index.get(key)
        if idx is None:
            idx = self.index[key] = self.new()
        return idx

    def has(self, key: tuple) -> bool:
        return key in self.index

    def add(self, lits) -> None:
        self.clauses.append(list(lits))

    def unit(self, lit: int) -> None:
        self.clauses.append([lit])

    def at_most_one(self, lits) -> None:
        """Pairwise for small groups, sequential (ladder) beyond."""
        lits = list(lits)
        if len(lits) <= _PAIRWISE_LIMIT:
            for i, a in enumerate(lits):
                for b in lits[i + 1:]:
                    self.add([-a, -b])
            return
        prev = None
        for x in lits[:-1]:
            cur = self.new()
            self.add([-x, cur])
            if prev is not None:
                self.add([-prev, cur])
                self.add([-x, -prev])
            prev = cur
        self.add([-lits[-1], -prev])

    def exactly_one(self, lits) -> None:
        self.add(list(lits))
        self.at_most_one(lits)


# ------------------------------------------------------------------- model

def event_var(cnf: Cnf, event: str, t: int):
    """The variable of ``event`` at timestep ``t``, or None where the
    encoding has none: the event cannot occur there, so it is false."""
    return cnf.index.get(("e", event, t))


def _event_vars(cnf: Cnf, events, t: int) -> list:
    """The variables of those ``events`` that exist at timestep ``t``."""
    return [v for e in events if (v := event_var(cnf, e, t)) is not None]


def _state_lits(cnf: Cnf, states) -> dict:
    """A literal for each of the local ``states``: for exactly two, ``x``
    and ``-x`` of one new variable, which need no exactly-one; otherwise a
    new variable each."""
    if len(states) == 2:
        x = cnf.new()
        return {states[0]: x, states[1]: -x}
    return {s: cnf.new() for s in states}


def encode_run(model: DesModel, obs: Observation, params: EncodingParams,
               cnf: Cnf) -> list:
    """Encode the runs of ``model`` over the horizon that the observation
    allows, keeping only what can still happen.

    A forward pass over the timesteps keeps, at timestep ``t``:

    * the events the observation allows there (every unobservable event,
      plus the designated observed event, which becomes a unit) that every
      component with the event in its alphabet can take from a local state
      reachable at ``t - 1``; at a designated step, no event that shares a
      component with the designated one;
    * the transitions labelled with those events, from reachable states;
    * the local states those transitions reach, plus the states of ``t - 1``
      for a component that may stay, one without the designated event in its
      alphabet.

    Every variable left out is false in every model of the full encoding,
    so the two are equisatisfiable.

    A component's states at ``t`` are literals that exactly one of holds:
    for two states, ``x`` and ``-x`` of one variable, with no clause (the
    compact state variables of Ernst, Millstein & Weld, IJCAI 1997);
    otherwise a variable each under an exactly-one.

    A move's literal ``tr`` goes into ``[-tr, now[dst]]``, ``[-tr,
    was[src]]`` and the frame clause ``[-now[s]] + keep + into[s]`` of its
    target.  A component with several moves for event ``e`` at ``t`` gets a
    variable for each, tied to the event by ``[-tr, ev[e]]`` and ``[-ev[e]]
    + trs``.  With exactly one move, those two clauses would make its
    variable equivalent to ``ev[e]``: the component takes the move iff
    ``e`` occurs.  So ``ev[e]`` is the move's literal, and neither the
    variable nor the two clauses are made, as planning-as-SAT encodings let
    the action variable stand for its transition.

    A component takes at most one of its events at ``t``.  Where it had two
    states at ``t - 1`` and every event has a lone move, ``[-tr,
    was[src]]`` ties each event to ``x`` or to ``-x``, so two events from
    different states already exclude each other, and the at-most-one is
    written per source state (Rintanen, Heljanko & Niemelä, AIJ 2006, drop
    the exclusion of actions whose preconditions exclude each other).
    Otherwise it is written over all its events.

    No clause is written that holds a literal an earlier unit asserts (the
    kernel would drop it at load): a component's lone state at ``t - 1``
    and the designated event are units, so the clauses tying a transition
    or a kept state to them are left out.  That includes the frame clause
    of a state entered by the designated event's lone move, which would
    hold the event's unit.  When a designated event cannot occur, the CNF
    gets the empty clause and the pass stops.  Returns the decode table:
    ``(var, event)`` for every event variable, in timestep order and,
    within a timestep, in registry order.
    """
    n = params.horizon(len(obs))
    k = params.steps_per_obs
    observable = frozenset(model.observable)
    comps = model.components
    # per component: event -> its transitions as (src, dst)
    by_event = [{} for _ in comps]
    for moves, comp in zip(by_event, comps):
        for src, e, dst in comp.trans:
            moves.setdefault(e, []).append((src, dst))
    # per event: the indices of the components with it in their alphabet
    owners = {e: [c for c, moves in enumerate(by_event) if e in moves]
              for e in model.events}
    # per component: local state -> its literal at t - 1
    prev = [_state_lits(cnf, [s for s in comp.states if s in comp.init])
            for comp in comps]
    for states in prev:
        if len(states) != 2:
            cnf.exactly_one(states.values())
    table = []
    for t in range(1, n + 1):
        i, r = divmod(t, k)
        designated = obs.sequence[i - 1] if r == 0 and i <= len(obs) else None
        busy = owners[designated] if designated else ()
        ev = {}
        for e in model.events:
            if e == designated or (
                    e not in observable
                    and not any(c in busy for c in owners[e])):
                if all(any(src in prev[c] for src, _ in by_event[c][e])
                       for c in owners[e]):
                    ev[e] = cnf.var(("e", e, t))
                    table.append((ev[e], e))
        if designated:
            if designated not in ev:
                cnf.add([])     # the observed event cannot occur here
                return table
            cnf.unit(ev[designated])
        for c, comp in enumerate(comps):
            was = prev[c]
            # a lone state of t - 1 is a unit: a clause holding it is true
            lone = len(was) == 1
            stay = c not in busy
            # per event: its moves from the states of t - 1
            moves = {e: [(src, dst) for src, dst in pairs if src in was]
                     for e, pairs in by_event[c].items() if e in ev}
            reach = {dst for pairs in moves.values() for _, dst in pairs}
            if stay:
                reach.update(was)
            now = _state_lits(cnf, [s for s in comp.states if s in reach])
            into = {s: [] for s in now}
            choices = {}    # event -> its moves' variables, where several
            for e, pairs in moves.items():
                for src, dst in pairs:
                    # a lone move is taken iff its event occurs: ev[e] is it
                    if len(pairs) == 1:
                        tr = ev[e]
                    else:
                        tr = cnf.new()
                        choices.setdefault(e, []).append(tr)
                    cnf.add([-tr, now[dst]])
                    if not lone:
                        cnf.add([-tr, was[src]])
                    if e in choices and e != designated:
                        cnf.add([-tr, ev[e]])
                    into[dst].append(tr)
            unit = ev.get(designated)
            for s, sv in now.items():
                # frame: a state newly reached needs a transition into it
                keep = [was[s]] if stay and s in was else []
                if not (keep and lone) and unit not in into[s]:
                    cnf.add([-sv] + keep + into[s])
            for e, trs in choices.items():
                cnf.add([-ev[e]] + trs)
            if len(was) == 2 and not choices:
                # ``[-tr, was[src]]`` ties each lone move to its source, x
                # or -x: only the moves from one state need an exclusion
                by_src = {}
                for e, ((src, _),) in moves.items():
                    by_src.setdefault(src, []).append(ev[e])
                for evs in by_src.values():
                    cnf.at_most_one(evs)
            else:
                cnf.at_most_one([ev[e] for e in moves])
            if len(now) != 2:
                cnf.exactly_one(now.values())
            prev[c] = now
    return table


def encode_fault_interleaving(model: DesModel, n: int, cnf: Cnf) -> None:
    """At most one fault event per timestep.

    Required whenever fault order matters (SqHS): the sequence encodings read
    the timestep order, and the decoded linearisation must not invent one.
    A pairwise group writes no clause for two faults of one component: that
    component's clauses (:func:`encode_run`) already forbid the pair, by an
    at-most-one over its events or, for lone moves from its two states, by
    the states they leave.
    """
    comps = {f: {c for c, comp in enumerate(model.components)
                 if f in comp.alphabet} for f in model.faults}
    for t in range(1, n + 1):
        lits = [(comps[f], v) for f in model.faults
                if (v := event_var(cnf, f, t)) is not None]
        if len(lits) > _PAIRWISE_LIMIT:
            cnf.at_most_one(v for _, v in lits)
            continue
        for i, (cs, a) in enumerate(lits):
            for ds, b in lits[i + 1:]:
                if cs.isdisjoint(ds):
                    cnf.add([-a, -b])


# -------------------------------------------------------------- properties

def _occ_var(cnf: Cnf, fault: str, n: int) -> int:
    """occ[f] <-> f occurred at some timestep."""
    key = ("occ", fault)
    if cnf.has(key):
        return cnf.var(key)
    occ = cnf.var(key)
    lits = [v for t in range(1, n + 1)
            if (v := event_var(cnf, fault, t)) is not None]
    cnf.add([-occ] + lits)
    for lit in lits:
        cnf.add([-lit, occ])
    return occ


def _desc_chain(cnf: Cnf, anchor: tuple, n: int) -> int:
    """dh[p]@t <-> the prefix ``p`` of the anchor embeds as a subsequence in
    the fault word up to ``t``; returns dh[anchor]@n for a non-empty anchor.

    Columns are keyed by prefix, ``("dh", p, t)``: dh[p]@t reads only the
    last fault of ``p`` and the columns of ``p`` and ``p[:-1]``, so anchors
    that share a prefix share its column, and a chain builds only the
    columns not in the CNF yet.  The empty prefix's column is true and left
    implicit.  Where the last fault of ``p`` has no variable, the column
    keeps its value and its key names the variable of ``t - 1``.  With
    anchor ``(f,) * j`` this is Sinz's sequential counter (CP 2005), "at
    least ``j`` occurrences of ``f``": the MHS threshold.
    """
    for i in range(1, len(anchor) + 1):
        pre = anchor[:i]
        if cnf.has(("dh", pre, n)):
            continue
        prev = cnf.var(("dh", pre, 0))
        cnf.unit(-prev)
        for t in range(1, n + 1):
            x = event_var(cnf, pre[-1], t)
            if x is None:
                cnf.index[("dh", pre, t)] = prev
                continue
            cur = cnf.var(("dh", pre, t))
            # dh[pre[:-1]]@(t-1); the empty prefix's is true and drops out
            below = [cnf.var(("dh", pre[:-1], t - 1))] if i > 1 else []
            if below:
                cnf.add([-cur, prev] + below)
            cnf.add([-cur, prev, x])
            cnf.add([-prev, cur])
            cnf.add([-b for b in below] + [-x, cur])
            prev = cur
    return cnf.var(("dh", anchor, n))


def _nofault_var(cnf: Cnf, faults: tuple, t: int) -> int:
    key = ("nofault", t)
    if cnf.has(key):
        return cnf.var(key)
    nf = cnf.var(key)
    lits = _event_vars(cnf, faults, t)
    for lit in lits:
        cnf.add([-nf, -lit])
    cnf.add([nf] + lits)
    return nf


def _anc_chain(cnf: Cnf, anchor: tuple, faults: tuple, n: int) -> int:
    """ah[p]@t <-> fault word up to t embeds into the prefix ``p`` of the
    anchor; returns ah[anchor]@n.

    Case split on the (at most one) fault event at t:
      no fault   -> ah[p] persists;
      fault f    -> ah[p]@t <-> OR_{q<=|p|, p[q-1]=f} ah[p[:q-1]]@(t-1).
    Relies on the at-most-one-fault-per-timestep constraint.  Columns are
    keyed by prefix, ``("ah", p, t)``, as in :func:`_desc_chain`, and keep
    their value where no fault has a variable; the empty prefix's column
    ("no fault yet") is explicit.
    """
    for i in range(len(anchor) + 1):
        pre = anchor[:i]
        if cnf.has(("ah", pre, n)):
            continue
        prev = cnf.var(("ah", pre, 0))
        cnf.unit(prev)
        for t in range(1, n + 1):
            xs = [(f, x) for f in faults
                  if (x := event_var(cnf, f, t)) is not None]
            if not xs:
                cnf.index[("ah", pre, t)] = prev
                continue
            nf = _nofault_var(cnf, faults, t)
            cur = cnf.var(("ah", pre, t))
            cnf.add([-nf, -prev, cur])
            cnf.add([-nf, prev, -cur])
            for f, x in xs:
                sources = [cnf.var(("ah", pre[:q - 1], t - 1))
                           for q in range(1, i + 1) if pre[q - 1] == f]
                cnf.add([-x, -cur] + sources)
                for src in sources:
                    cnf.add([-x, -src, cur])
            prev = cur
    return cnf.var(("ah", anchor, n))


def guard_property(cnf: Cnf, prop: Property, act: int, lits) -> None:
    """Emit ``prop`` behind its activation literal ``act``.

    ``lits`` are the literals whose conjunction states the positive form of
    the property, desc or anc of its anchor; they may come from a generator
    that builds auxiliary variables as it goes.  desc/anc get one clause
    ``[-act, lit]`` per literal, neg_desc/neg_anc the single clause
    ``[-act, -lit...]``.  Every property clause of every frontend is written
    here, so ``act`` occurs in clauses only negatively.
    """
    if prop.kind in POSITIVE_KINDS:
        for lit in lits:
            cnf.add([-act, lit])
    else:
        cnf.add([-act] + [-lit for lit in lits])


def set_literals(prop: Property, faults, lit):
    """Literals stating desc or anc of an SHS property's anchor, from each
    fault's occurrence literal ``lit(f)``: ``lit(f)`` for each fault of the
    sorted anchor (desc), ``-lit(f)`` for each fault outside it (anc)."""
    anchor = prop.anchor.data
    if prop.kind in DESC_KINDS:
        return (lit(f) for f in sorted(anchor))
    return (-lit(f) for f in faults if f not in anchor)


def encode_property(prop: Property, space: Space, model: DesModel,
                    params: EncodingParams, obs_len: int, cnf: Cnf,
                    act: int) -> None:
    """Pick the literals stating desc or anc of the property's anchor in
    this space and hand them to :func:`guard_property`."""
    n = params.horizon(obs_len)
    faults = tuple(model.faults)
    anchor = prop.anchor
    desc = prop.kind in DESC_KINDS
    if space.kind == SHS:
        lits = set_literals(prop, faults, lambda f: _occ_var(cnf, f, n))
    elif space.kind == MHS:
        if desc:
            lits = (_desc_chain(cnf, (f,) * anchor.count(f), n)
                    for f in faults if anchor.count(f) >= 1)
        else:
            lits = (-_desc_chain(cnf, (f,) * (anchor.count(f) + 1), n)
                    for f in faults)
    else:
        seq = anchor.data
        if not desc:
            lits = (_anc_chain(cnf, seq, faults, n),)
        else:
            # desc of the empty sequence is the empty conjunction
            lits = (_desc_chain(cnf, seq, n),) if seq else ()
    guard_property(cnf, prop, act, lits)


# ------------------------------------------------------------------ solver

class AssumptionSolver:
    """Test solver over one growing CNF and one live kernel.

    A property gets its activation literal when a request first names it;
    ``_encode_property`` then picks the literals of its positive form and
    emits them through :func:`guard_property`, which guards each clause by
    ``-act``.
    A test loads only the clauses added since the previous test into the
    kernel (created by the first test), solves under the request's
    activation literals and maps failed assumptions back to a conflict.

    A frontend may override :meth:`cube` to assume a request as plain
    literals instead, with no activation literal and no property clause;
    a failed literal then maps back to the properties it stands for.

    One kernel across tests is sound: a property clause binds only while
    its activation literal is assumed; the other clauses tests add define
    fresh auxiliary variables (occurrence and chain literals), so
    every assignment of the older variables extends to them; and learnt
    clauses are implied by the clause database.

    Activation literals are non-decision variables of the kernel, so it
    never branches on the literal of a property the request does not name.
    A model may leave such a literal unassigned, and that is sound: every
    clause holds activation literals only negatively (property clauses are
    written only by :func:`guard_property`, which puts ``act`` in them as
    ``-act`` alone; a learnt clause is a resolvent of clauses on
    variables other than activation literals, which never occur positively,
    so it keeps only such guards), so an unassigned one extends to false and
    the model satisfies every clause.  No frontend reads the value of an
    activation literal.

    A frontend may set ``preferred``, signed literals that every kernel it
    creates decides first, in order (``MiniSolver.prefer``).  A model's set
    of false preferred literals is then subset-minimal among the models of
    the CNF under the request's assumptions.
    """

    def __init__(self, cnf: Cnf, space: Space):
        self.cnf = cnf
        self.space = space
        self.stats = SolverStats()
        self.kernel = None
        self.preferred = ()    # literals each kernel decides first
        self._acts = {}        # Property -> activation literal
        self._unmarked = []    # activation literals not yet non-decision
        self._loaded = 0       # clauses of cnf already in the kernel

    def _encode_property(self, prop: Property, act: int) -> None:
        """Emit the property into ``cnf`` through :func:`guard_property`."""
        raise NotImplementedError

    def _candidate(self, kernel, request: TestRequest) -> TestOutcome:
        """Decode and re-validate the kernel's model after a SAT solve."""
        raise NotImplementedError

    def activate(self, props) -> list:
        """Activation literal of each property, encoding it on first use."""
        acts = []
        for prop in props:
            act = self._acts.get(prop)
            if act is None:
                act = self._acts[prop] = self.cnf.new()
                self._unmarked.append(act)
                self._encode_property(prop, act)
            acts.append(act)
        return acts

    def cube(self, props):
        """The request as ``(literals, owners)``: literals to assume in
        place of activation literals, and for each literal the indices of
        the properties it stands for; None, as here, for a request that
        takes activation literals."""
        return None

    def solve(self, request: TestRequest) -> TestOutcome:
        space = request.space
        if space is not self.space and space != self.space:
            raise SpaceMismatchError(
                f"request for {space} sent to a solver of {self.space}")
        props = request.props
        cube = self.cube(props)
        lits = self.activate(props) if cube is None else cube[0]
        if self.kernel is None:
            self.kernel = self._new_kernel()
        kernel = self.kernel
        kernel.ensure_vars(self.cnf.nvars)
        for act in self._unmarked:
            kernel.mark_non_decision(act)
        self._unmarked.clear()
        clauses = self.cnf.clauses
        if len(clauses) > self._loaded:
            kernel.add_clauses(clauses[self._loaded:])
            self._loaded = len(clauses)
        if kernel.solve(lits):
            return self._candidate(kernel, request)
        failed = set(kernel.failed_assumptions())
        if cube is None:
            return TestOutcome.failed(
                tuple(p for p, act in zip(props, lits) if act in failed))
        hit = {i for lit in failed for i in cube[1][lit]}
        return TestOutcome.failed(
            tuple(p for i, p in enumerate(props) if i in hit))

    def check_conflict(self, conflict: tuple) -> bool:
        """Independent check of a conflict: solve the whole CNF in a fresh
        kernel (not the live one, with its learnt clauses) under only the
        conflict's activation literals; True iff UNSAT."""
        acts = self.activate(conflict)
        kernel = self._new_kernel()
        kernel.add_clauses(self.cnf.clauses)
        return not kernel.solve(acts)

    def _new_kernel(self) -> MiniSolver:
        """A kernel holding every variable of ``cnf``, lowest index tried
        first, that decides ``preferred`` first."""
        kernel = MiniSolver()
        kernel.ensure_vars(self.cnf.nvars)
        kernel.prefer(self.preferred)
        return kernel


def decode_trace(events, values) -> tuple:
    """The true events of a model, read from the kernel's value array
    ``values`` (``values[2 * var]`` is 1 where ``var`` is true) for the
    decode table ``events`` of :func:`encode_run`: linearised in timestep
    order and, within a timestep, in registry order."""
    return tuple(e for var, e in events if values[2 * var] == 1)


class SatSolver(AssumptionSolver):
    """Test solver backed by the bounded SAT encoding.

    The model/observation block is encoded once, by the constructor, which
    keeps the decode table of :func:`encode_run` as ``event_vars``; each
    property is encoded behind its activation literal on first use, and
    every test runs on the one live kernel of :class:`AssumptionSolver`.
    """

    name = "sat"

    def __init__(self, model: DesModel, obs: Observation, space: Space,
                 params: EncodingParams | None = None):
        model.check_space(space)
        model.check_observation(obs)
        super().__init__(Cnf(), space)
        self.model = model
        self.obs = obs
        self.params = params or EncodingParams()
        self.horizon = self.params.horizon(len(obs))
        self.event_vars = encode_run(model, obs, self.params, self.cnf)
        if space.kind == SQHS:
            encode_fault_interleaving(model, self.horizon, self.cnf)

    def _encode_property(self, prop: Property, act: int) -> None:
        encode_property(prop, self.space, self.model, self.params,
                        len(self.obs), self.cnf, act)

    def _candidate(self, kernel, request: TestRequest) -> TestOutcome:
        trace = decode_trace(self.event_vars, kernel.values)
        hyp = trace_hypothesis(trace, self.model, self.space)
        if not (trace_in_model(trace, self.model)
                and trace_matches_observation(trace, self.model, self.obs)
                and member(hyp, request.props, self.space)):
            raise EncodingError(f"decoded witness fails re-validation: {trace}")
        return TestOutcome.found(hyp, trace)
