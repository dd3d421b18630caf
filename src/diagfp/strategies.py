"""Exploration strategies over the abstract test-solver contract.

Preferred-last (PLS) repeatedly asks "is there a candidate my set does not
cover?" and collects counterexamples; the refinement variant (PLS+r) walks
each new candidate down to a minimal one first.  Both share one loop.
Preferred-first (PFS) pops the best untested hypothesis, tests its candidacy
and expands its children on failure; the `e` variant prunes hypotheses whose
removal keeps the open+result set covering, and the `c` variant replaces
children by conflict-directed successors.  All four PFS variants share one
loop.  Each hypothesis it pushes is a strict descendant of the one just
popped, so it pops in :func:`order_key` order, its result comes before every
open hypothesis in that order, and it keeps both on one key-ordered list.
:func:`_insert` puts each hypothesis PLS or PFS holds on such a list and its
``neg_desc`` property at the same index of a second one.  PLS's coverage
question is that list whole, PFS-e's is that list less the popped
hypothesis, as :func:`question_coverage` would build either.  PFS-e also
keeps every candidate a coverage test returns, and stores a popped
hypothesis found among them without testing it again.  It sends no coverage
question whose answer the run already holds: under `ec`, one that holds
every property of an earlier coverage conflict has no candidate, and one
that the candidate answering the parent's question still meets is answered
by that candidate (see :func:`run_pfs`).

Every test a strategy sends goes through :meth:`_Run.ask`, which holds the
run's budget: ``iteration_cap`` tests, counted by the run itself.  A
budget-exhausted run carries its partial output in the BudgetExhausted
error.  Every element PFS and PLS+r ever store in their result sets is a
minimal candidate, so their partials are subsets of the minimal diagnosis.
A PLS partial holds candidates, not necessarily minimal ones: PLS learns
minimality only when its coverage question fails.  A solver whose every
answer is a minimal candidate of the requested set, as ``CircuitSolver``'s
is, makes each PLS answer a minimal diagnosis element, so its partials too
are subsets of the diagnosis, and a full run takes one test per element
plus the coverage test that fails.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from types import MappingProxyType

from .contract import TestOutcome, TestRequest
from .errors import BudgetExhausted, DiagError, check_count
from .hypothesis import (Hypothesis, Space, any_leq, children, leq, lt,
                         min_antichain, order_key, otimes)
from .properties import (NEG_DESC, Property, member, question_candidate,
                         question_minimal)

# The most tests one strategy run may send, in every strategy.
DEFAULT_ITERATION_CAP = 10_000

PFS_VARIANTS = ("plain", "e", "c", "ec")

STRATEGIES = ("pls", "pls-r", "pfs", "pfs-e", "pfs-c", "pfs-ec")


@dataclass
class DiagnosisResult:
    minimal_candidates: list
    stats: Mapping = field(default_factory=dict)

    def canon(self) -> list:
        # interned: a caller that keeps the results of many runs then holds
        # one copy of each rendering
        return [sys.intern(h.canon()) for h in self.minimal_candidates]


class _Run:
    """One strategy run: its counters, its test budget and ``minimal``,
    which returns its minimal candidates so far in :func:`order_key` order
    (PFS's ``result`` as it stands, the minimal elements of PLS's
    ``found``)."""

    def __init__(self, solver, space: Space, strategy: str, iteration_cap: int,
                 minimal):
        check_count("iteration_cap", iteration_cap)
        self.solver = solver
        self.space = space
        self.strategy = strategy
        self.iteration_cap = iteration_cap
        self.minimal = minimal
        self.tests = 0
        self.expansions = 0
        self.cache_hits = 0

    def ask(self, props: tuple) -> TestOutcome:
        """Send one test; past the cap, raise with :meth:`result` as the
        partial result."""
        if self.tests >= self.iteration_cap:
            raise BudgetExhausted(f"{self.strategy} hit its test cap",
                                  partial=self.result(), stats=self.stats())
        self.tests += 1
        return self.solver.solve(TestRequest(props, self.space))

    def result(self) -> DiagnosisResult:
        return DiagnosisResult(self.minimal(), self.stats())

    def stats(self) -> Mapping:
        return _shared_stats(self.tests, self.expansions, self.cache_hits)


@lru_cache(maxsize=4096)
def _shared_stats(tests: int, expansions: int, cache_hits: int) -> Mapping:
    """A read-only ``{"tests", "expansions", "cache_hits"}`` mapping, one
    per distinct triple: a caller that keeps the results of many runs then
    holds one copy of each."""
    return MappingProxyType({"tests": tests, "expansions": expansions,
                             "cache_hits": cache_hits})


def _insert(hyps: list, keys: list, cover: list, h: Hypothesis) -> None:
    """Insert ``h``, its :func:`order_key` and its ``neg_desc`` at one index
    of ``hyps``, ``keys`` and ``cover``, keeping ``keys`` sorted."""
    key = order_key(h)
    i = bisect_left(keys, key)
    hyps.insert(i, h)
    keys.insert(i, key)
    cover.insert(i, Property(NEG_DESC, h))


def run_pls(solver, space: Space, iteration_cap: int = DEFAULT_ITERATION_CAP,
            refine: bool = False) -> DiagnosisResult:
    """Preferred-last search; with ``refine`` (PLS+r) each new candidate is
    walked down to a minimal one before it is stored.  The budget partial
    is the antichain of the candidates found so far: under plain PLS each
    is a candidate, but a smaller candidate may not have been found yet, so
    it need not be minimal.  Each coverage question is ``cover``, the
    ``neg_desc`` of each answer in ``found`` (none is stored twice)."""
    found, keys, cover = [], [], []
    run = _Run(solver, space, "pls-r" if refine else "pls", iteration_cap,
               lambda: min_antichain(found, space))
    while True:
        outcome = run.ask(tuple(cover))
        if not outcome.is_candidate:
            return run.result()
        delta = outcome.candidate
        if any_leq(found, delta, space):
            raise DiagError(f"coverage test answered with {delta.canon()}, "
                            "which a found candidate covers")
        while refine:
            smaller = run.ask(question_minimal(delta, space))
            if not smaller.is_candidate:
                break
            if not lt(smaller.candidate, delta, space):
                raise DiagError(
                    f"minimality test of {delta.canon()} answered with "
                    f"{smaller.candidate.canon()}, which is not below it")
            delta = smaller.candidate
        _insert(found, keys, cover, delta)


def conflict_successors(h: Hypothesis, conflict: tuple,
                        space: Space) -> list:
    """Minimal descendants of ``h`` outside the conflict's hypothesis set.

    Only neg-desc members matter: a desc property of the refuted hypothesis
    holds for every descendant, so it can never be the contradicted one.  An
    empty result means the conflict refutes the entire cone under ``h``.
    """
    if not member(h, conflict, space):
        raise DiagError("refuted hypothesis must lie inside the conflict")
    anchors = [p.anchor for p in conflict if p.kind == NEG_DESC]
    if not anchors:
        return []
    merged = []
    for g in anchors:
        merged.extend(otimes(h, g, space))
    return min_antichain(merged, space)


def run_pfs(solver, space: Space, variant: str = "ec",
            iteration_cap: int = DEFAULT_ITERATION_CAP) -> DiagnosisResult:
    """Preferred-first search: pop the best open hypothesis ``h``, drop it
    if a result element is ``leq`` to it, else test its candidacy; store a
    candidate, and push the successors of a refuted ``h``.

    The four variants:

    * ``"plain"`` pushes the children of a refuted ``h``;
    * ``"c"`` pushes its conflict successors instead and caches every
      conflict, so an ``h`` a cached conflict covers is refuted untested;
    * ``"e"`` first asks the essential-coverage question over open + result
      minus ``h``, and drops ``h`` when no candidate escapes the rest;
    * ``"ec"`` does both, and caches the coverage conflicts too.

    Every successor is a strict descendant of the refuted ``h``: a child,
    or a conflict successor, which reaches a ``neg_desc`` anchor ``h`` does
    not.  In every space a strict descendant is strictly larger, so its
    :func:`order_key` is strictly above that of ``h``.  The pops therefore
    strictly increase in that order, as in Reiter's breadth-first HS-tree
    (AIJ 1987): no hypothesis is pushed twice, nothing strictly preferred
    to a popped ``h`` is still open, and every result element comes before
    every open hypothesis.  So one list ``queue`` holds the result, then the
    open hypotheses, in that order; the best open hypothesis is
    ``queue[len(result)]``, and storing it leaves it in place.  The result
    is an antichain as held: no result element is ``leq`` to a stored ``h``
    (checked at its pop), nor ``h`` to one, which has a lower key.

    Under ``e`` and ``ec`` the candidate each successful coverage test
    returns joins ``witnessed``.  A popped ``h`` that is in ``witnessed``
    (before its coverage test, or once its own test returned it) is stored
    with no further test.  Both skipped tests would succeed: no open
    hypothesis is strictly preferred to ``h`` and no result element is
    ``leq`` to it, so ``h`` itself meets the coverage question; and a
    witnessed ``h`` is a candidate, its witness re-validated by the solver,
    so it meets its candidacy question.  Skipping them leaves open, result
    and the conflict cache as the two tests would; only the solver's learnt
    state differs.

    Two more shortcuts answer ``h``'s coverage question (the ``neg_desc``
    of every hypothesis held by open + result, less ``h``) with no test:

    * Under ``ec``, the anchors of each coverage conflict are kept; such a
      conflict holds only ``neg_desc`` properties.  When all the anchors of
      one are held, the question holds every property of that conflict,
      and no candidate meets a conflict, so ``h`` is dropped as the failed
      test would drop it.  The conflict is cached already.
    * Under ``e`` and ``ec``, the candidate ``delta`` that answered
      ``h``'s question is passed to each successor ``s`` of ``h`` that is
      strictly below it (the first such hint wins).  When ``s`` is popped
      and no held hypothesis is ``leq`` to ``delta``, ``delta`` meets
      ``s``'s question, so the question is taken as answered by ``delta``
      and the candidacy test of ``s`` follows.  The skipped test would
      have succeeded too; its answer would only have joined
      ``witnessed``, and had that answer been ``s`` itself, the candidacy
      test stores ``s`` all the same.

    Both leave every decision as the test would; the search may differ
    from then on, since a skipped test adds no conflict or witness, but
    each stored element is still a minimal candidate and each dropped or
    refuted hypothesis is still covered.  Both scans run only while a
    conflict is kept or a hint is given.

    ``cache_hits`` counts the tests the run answers from what it holds: a
    candidacy question a cached conflict refutes, and a coverage question
    either shortcut answers.
    """
    if variant not in PFS_VARIANTS:
        raise DiagError(f"unknown pfs variant {variant!r}")
    result = []
    run = _Run(solver, space,
               "pfs" if variant == "plain" else f"pfs-{variant}",
               iteration_cap, lambda: result)
    use_essential = variant in ("e", "ec")
    use_conflicts = variant in ("c", "ec")

    # result then open, in order_key order; their keys; their neg_desc
    # properties; and the set of them
    queue, keys, cover = [], [], []
    held = set()
    conflicts = []
    # every candidate a coverage test returned
    witnessed = set()
    # the anchors of every coverage conflict (under ec)
    refuted = []
    # open hypothesis -> the candidate that answered its parent's coverage
    # question, when the hypothesis is below it
    hints = {}

    def push(s):
        if s not in held:
            held.add(s)
            _insert(queue, keys, cover, s)

    def drop():
        """Drop the best open hypothesis."""
        i = len(result)
        held.remove(queue.pop(i))
        del keys[i]
        del cover[i]

    push(space.h0)
    while len(queue) > len(result):
        run.expansions += 1
        i = len(result)
        h = queue[i]
        delta = hints.pop(h, None) if hints else None
        if any_leq(result, h, space):
            drop()
            continue
        if use_essential and h not in witnessed:
            # no held hypothesis but h (queue[i]) is leq to delta
            if delta is not None and not (
                    any_leq(result, delta, space)
                    or any_leq(islice(queue, i + 1, None), delta, space)):
                run.cache_hits += 1
            elif any(h not in r and r <= held for r in refuted):
                run.cache_hits += 1
                drop()
                continue
            else:
                covered = run.ask(tuple(cover[:i] + cover[i + 1:]))
                if not covered.is_candidate:
                    if use_conflicts:
                        conflicts.append(covered.conflict)
                        refuted.append(frozenset(
                            anchor for _, anchor in covered.conflict))
                    drop()
                    continue
                delta = covered.candidate
                witnessed.add(delta)
        if h in witnessed:
            result.append(h)
            continue
        conflict = None
        if use_conflicts:
            for c in conflicts:
                if member(h, c, space):
                    conflict = c
                    run.cache_hits += 1
                    break
        if conflict is None:
            outcome = run.ask(question_candidate(h, space))
            if outcome.is_candidate:
                if outcome.candidate != h:
                    raise DiagError(
                        f"candidacy test of {h.canon()} answered with "
                        f"{outcome.candidate.canon()}")
                result.append(h)
                continue
            conflict = outcome.conflict
            if use_conflicts:
                conflicts.append(conflict)
        drop()
        successors = conflict_successors(h, conflict, space) if use_conflicts \
            else children(h, space)
        for s in successors:
            push(s)
            if delta is not None and s != delta and leq(s, delta, space):
                hints.setdefault(s, delta)
    return run.result()


def run_strategy(name: str, solver, space: Space,
                 iteration_cap: int = DEFAULT_ITERATION_CAP) -> DiagnosisResult:
    if name not in STRATEGIES:
        raise DiagError(f"unknown strategy {name!r}")
    family, _, variant = name.partition("-")
    if family == "pls":
        return run_pls(solver, space, iteration_cap, refine=variant == "r")
    return run_pfs(solver, space, variant or "plain", iteration_cap)


def terminating_strategies(space: Space) -> tuple:
    """Strategies with a termination guarantee on this space: every strategy
    on finite spaces, and the refining/essential ones on the infinite spaces
    (plain PFS and PFS+c provably diverge there when conflicts stay local)."""
    if space.is_finite():
        return STRATEGIES
    return ("pls", "pls-r", "pfs-e", "pfs-ec")
