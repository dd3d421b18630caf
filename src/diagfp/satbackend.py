"""Bounded-reachability SAT test solver for DES.

A behaviour of parallel length ``n`` is encoded with one block of variables
per timestep: an event variable per event, and a component-state and a
transition variable per component, constrained so that every solution
decodes to a path of the model.  The i-th observed event is pinned at
timestep ``steps_per_obs * i``; all other observable events are negated
everywhere.  The horizon is ``steps_per_obs * (|obs| + 1)``, leaving room for
unobservable behaviour after the final observation (and ``steps_per_obs``
steps when the observation is empty).

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
from .errors import DiagError, EncodingError, SpaceMismatchError
from .hypothesis import MHS, SHS, SQHS, Space
from .properties import DESC_KINDS, POSITIVE_KINDS, Property, member
from .satcore import MiniSolver

_PAIRWISE_LIMIT = 8


@dataclass(frozen=True)
class EncodingParams:
    steps_per_obs: int = 7

    def __post_init__(self):
        if self.steps_per_obs < 1:
            raise DiagError("steps_per_obs must be >= 1")

    def horizon(self, obs_len: int) -> int:
        return self.steps_per_obs * (obs_len + 1)


class Cnf:
    """Clause store; variables are numbered 1, 2, ... in creation order.

    A variable that encodings look up again is keyed by the tuple of values
    that define it: ``("e", event, t)`` (event at timestep ``t``),
    ``("occ", f)`` (``f`` occurs), ``("dh", p, t)`` and ``("ah", p, t)``
    (the subsequence chains' columns, one per anchor prefix ``p``; MHS
    thresholds are the desc chains of ``(f,) * j``), ``("nofault", t)``,
    and for circuits ``("sig", signal)`` and ``("ab", gate)``.  Every other
    variable comes from :meth:`new` and is held only by its creator.
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

def encode_model(model: DesModel, obs_len: int, params: EncodingParams,
                 cnf: Cnf) -> None:
    n = params.horizon(obs_len)
    sv = {}
    ev = {}
    tv = {}
    for e in model.events:
        for t in range(1, n + 1):
            ev[e, t] = cnf.var(("e", e, t))
    for comp in model.components:
        for s in comp.states:
            for t in range(n + 1):
                sv[comp.name, s, t] = cnf.new()
        for i in range(len(comp.trans)):
            for t in range(1, n + 1):
                tv[comp.name, i, t] = cnf.new()

    for comp in model.components:
        by_target = {s: [] for s in comp.states}
        by_event = {}
        for i, (src, e, dst) in enumerate(comp.trans):
            by_target[dst].append(i)
            by_event.setdefault(e, []).append(i)
        for t in range(1, n + 1):
            for i, (src, e, dst) in enumerate(comp.trans):
                tr = tv[comp.name, i, t]
                cnf.add([-tr, sv[comp.name, dst, t]])
                cnf.add([-tr, sv[comp.name, src, t - 1]])
                cnf.add([-tr, ev[e, t]])
            for s in comp.states:
                # frame: a state newly reached needs a transition into it
                cnf.add([-sv[comp.name, s, t], sv[comp.name, s, t - 1]]
                        + [tv[comp.name, i, t] for i in by_target[s]])
            for e, idxes in by_event.items():
                cnf.add([-ev[e, t]] + [tv[comp.name, i, t] for i in idxes])
            cnf.at_most_one([ev[e, t] for e in by_event])
        for t in range(n + 1):
            cnf.exactly_one([sv[comp.name, s, t] for s in comp.states])
        cnf.add([sv[comp.name, s, 0] for s in comp.init])


def encode_observation(model: DesModel, obs: Observation,
                       params: EncodingParams, cnf: Cnf) -> None:
    n = params.horizon(len(obs))
    k = params.steps_per_obs
    for t in range(1, n + 1):
        designated = obs.sequence[t // k - 1] if (t % k == 0
                                                  and t // k <= len(obs)) else None
        for e in model.observable:
            lit = cnf.var(("e", e, t))
            cnf.unit(lit if e == designated else -lit)


def encode_fault_interleaving(model: DesModel, obs_len: int,
                              params: EncodingParams, cnf: Cnf) -> None:
    """At most one fault event per timestep.

    Required whenever fault order matters (SqHS): the sequence encodings read
    the timestep order, and the decoded linearisation must not invent one.
    """
    n = params.horizon(obs_len)
    for t in range(1, n + 1):
        cnf.at_most_one([cnf.var(("e", f, t)) for f in model.faults])


# -------------------------------------------------------------- properties

def _occ_var(cnf: Cnf, fault: str, n: int) -> int:
    """occ[f] <-> f occurred at some timestep."""
    key = ("occ", fault)
    if cnf.has(key):
        return cnf.var(key)
    occ = cnf.var(key)
    lits = [cnf.var(("e", fault, t)) for t in range(1, n + 1)]
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
    implicit.  With anchor ``(f,) * j`` this is Sinz's sequential counter
    (CP 2005), "at least ``j`` occurrences of ``f``": the MHS threshold.
    """
    for i in range(1, len(anchor) + 1):
        pre = anchor[:i]
        if cnf.has(("dh", pre, n)):
            continue
        col = [cnf.var(("dh", pre, t)) for t in range(n + 1)]
        cnf.unit(-col[0])
        for t in range(1, n + 1):
            x = cnf.var(("e", pre[-1], t))
            cur, prev = col[t], col[t - 1]
            # dh[pre[:-1]]@(t-1); the empty prefix's is true and drops out
            below = [cnf.var(("dh", pre[:-1], t - 1))] if i > 1 else []
            if below:
                cnf.add([-cur, prev] + below)
            cnf.add([-cur, prev, x])
            cnf.add([-prev, cur])
            cnf.add([-b for b in below] + [-x, cur])
    return cnf.var(("dh", anchor, n))


def _nofault_var(cnf: Cnf, faults: tuple, t: int) -> int:
    key = ("nofault", t)
    if cnf.has(key):
        return cnf.var(key)
    nf = cnf.var(key)
    lits = [cnf.var(("e", f, t)) for f in faults]
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
    keyed by prefix, ``("ah", p, t)``, as in :func:`_desc_chain`; the empty
    prefix's column ("no fault yet") is explicit.
    """
    for i in range(len(anchor) + 1):
        pre = anchor[:i]
        if cnf.has(("ah", pre, n)):
            continue
        col = [cnf.var(("ah", pre, t)) for t in range(n + 1)]
        cnf.unit(col[0])
        for t in range(1, n + 1):
            nf = _nofault_var(cnf, faults, t)
            cur, prev = col[t], col[t - 1]
            cnf.add([-nf, -prev, cur])
            cnf.add([-nf, prev, -cur])
            for f in faults:
                x = cnf.var(("e", f, t))
                sources = [cnf.var(("ah", pre[:q - 1], t - 1))
                           for q in range(1, i + 1) if pre[q - 1] == f]
                cnf.add([-x, -cur] + sources)
                for src in sources:
                    cnf.add([-x, -src, cur])
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
    the CNF under the request's activation literals.
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

    def solve(self, request: TestRequest) -> TestOutcome:
        if request.space != self.space:
            raise SpaceMismatchError(
                f"request for {request.space} sent to a solver of {self.space}")
        props = request.props
        acts = self.activate(props)
        if self.kernel is None:
            self.kernel = self._new_kernel()
        kernel = self.kernel
        kernel.ensure_vars(self.cnf.nvars)
        for act in self._unmarked:
            kernel.mark_non_decision(act)
        self._unmarked.clear()
        kernel.add_clauses(self.cnf.clauses[self._loaded:])
        self._loaded = len(self.cnf.clauses)
        if kernel.solve(acts):
            return self._candidate(kernel, request)
        failed = set(kernel.failed_assumptions())
        return TestOutcome.failed(
            tuple(p for p, act in zip(props, acts) if act in failed))

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


def decode_trace(model: DesModel, values, cnf: Cnf, n: int) -> tuple:
    """Collect true events per timestep, linearised in registry order."""
    trace = []
    for t in range(1, n + 1):
        for e in model.events:
            if values(cnf.var(("e", e, t))):
                trace.append(e)
    return tuple(trace)


class SatSolver(AssumptionSolver):
    """Test solver backed by the bounded SAT encoding.

    The model/observation block is encoded once, by the constructor; each
    property is encoded behind its activation literal on first use, and
    every test runs on the one live kernel of :class:`AssumptionSolver`.
    """

    name = "sat"

    def __init__(self, model: DesModel, obs: Observation, space: Space,
                 params: EncodingParams | None = None):
        model.check_space(space)
        super().__init__(Cnf(), space)
        self.model = model
        self.obs = obs
        self.params = params or EncodingParams()
        self.horizon = self.params.horizon(len(obs))
        encode_model(model, len(obs), self.params, self.cnf)
        encode_observation(model, obs, self.params, self.cnf)
        if space.kind == SQHS:
            encode_fault_interleaving(model, len(obs), self.params, self.cnf)

    def _encode_property(self, prop: Property, act: int) -> None:
        encode_property(prop, self.space, self.model, self.params,
                        len(self.obs), self.cnf, act)

    def _candidate(self, kernel, request: TestRequest) -> TestOutcome:
        trace = decode_trace(self.model, kernel.value, self.cnf, self.horizon)
        hyp = trace_hypothesis(trace, self.model, self.space)
        if not (trace_in_model(trace, self.model)
                and trace_matches_observation(trace, self.model, self.obs)
                and member(hyp, request.props, self.space)):
            raise EncodingError(f"decoded witness fails re-validation: {trace}")
        return TestOutcome.found(hyp, trace)
