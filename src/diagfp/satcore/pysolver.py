"""Pure-Python CDCL solver with assumption support.

Minisat-style engine: two-watched-literal propagation, first-UIP clause
learning, preferred literals decided first, then a move-to-front queue with
phase saving, Luby restarts.
Solving under assumptions yields, on UNSAT, a subset of the assumptions
sufficient for unsatisfiability (``failed_assumptions``); re-solving under
only that subset stays UNSAT.

All assumptions share one decision level, level 1 (after Hickey & Bacchus,
"Speeding up assumption-based SAT", SAT 2019): ``solve`` enqueues every
unassigned assumption on it and propagates once.  An assumption already
false there fails, together with the assumptions that imply its negation (a
complementary pair fails with both literals; one false at root fails alone).
A conflict at level 1 ends the solve: the failed set is the assumptions
reached by walking back from the conflicting clause through the reasons.
``_assumptions_behind`` makes both walks.  Conflicts above level 1 learn a
clause and backjump; a backjump to level 0, or a restart, opens the
assumption level again.  ``conflicts`` counts every conflict, at root, at
the assumption level and above it; ``decisions`` counts branching decisions
only, not assumptions.

The solver is incremental: clauses may be added between solves
(``add_clause`` first returns to decision level 0), and learnt clauses,
the decision queue and saved phases carry over to the next solve.  No clause
deletion: workloads here are bounded-size encodings whose tests add few
clauses.

A variable can be marked non-decision (``mark_non_decision(v)``, as MiniSat's
``setDecisionVar(v, false)``): it leaves the decision queue and the solver
never branches on it, not even as a preferred literal, so it is assigned
only by an assumption or by propagation and may stay unassigned in a
model.  This is meant for selector literals that occur only negatively in
every clause: such a literal, left unassigned, extends to false and the
model still satisfies every clause.

Literals use the DIMACS convention externally (signed non-zero ints) and the
``2*var + sign`` packing internally.  Values are kept per internal literal
(``values[lit]``: 1 true, 0 false, -1 unassigned), so testing a literal is
one index; a frontend decoding a model reads ``values[2 * var]`` the same
way.

Decisions.  ``prefer(lits)`` gives the solver a list of preferred literals.
``_pick_branch`` first decides the first unassigned preferred literal of a
decision variable, in the given order and with the given polarity; only
when all of them are assigned does it take a queue decision.  So on the
trail every preferred literal is assigned below the first queue decision,
and one that is false is implied, through clauses the original ones imply,
by the assumptions and the preferred decisions before it in the list.
Hence a model's set F of false preferred literals is subset-minimal among
the models of the clauses plus the assumptions: a model false on a strict
subset of F makes every preferred literal outside F true, and with it every
preferred decision; the first literal of F, in list order, that it makes
true is implied false by true ones, a contradiction (preferred decisions
first, after Giunchiglia & Maratea, "Solving optimization problems with
DLL", ECAI 2006).

Every other decision comes from a VMTF queue (variable move-to-front;
Biere & Fröhlich, "Evaluating CDCL variable scoring schemes", SAT 2015).
The queue is a doubly linked list of the decision variables through
``prev`` and ``next`` (0 ends it), newest at ``last``; ``stamp[v]`` rises
towards ``last`` and is 0 exactly when ``v`` is not queued.  Conflict
analysis moves every variable it meets to ``last`` with a new stamp.  The
invariant is that every queued variable newer than ``search`` is assigned:
``_pick_branch`` walks from ``search`` towards older variables to the first
unassigned one, ``_cancel_until`` moves ``search`` to the newest variable it
unassigns, and ``ensure_vars`` appends new variables in one batch, highest
index first, so the lowest new index is tried first.  Each of these is O(1)
per variable.

Hot-path rule: ``_propagate``, ``_cancel_until``, ``_pick_branch``,
``_bump_var``, ``add_clauses`` and ``solve`` bind the attributes they use to
locals and inline the value test, the enqueue and the queue links, since in
Python a method call costs more than the work it wraps.  Loading is done once per
batch: ``add_clauses`` returns to decision level 0 and creates every
variable its clauses name before loading them, and ``solve`` creates its
assumptions' variables once.  ``add_clauses`` stores a binary clause whose
two literals are unassigned and on distinct variables directly, as the
clause and the two watches its general loop would make; every other clause
(a unit, a literal assigned at root, a repeated or complementary pair, three
or more literals) takes the general loop.

``tests/test_satcore.py::test_search_is_unchanged`` pins the search: each
clause's literal order, the order of every watch list and the queue order
decide the verdicts, failed assumptions, models and counts it checks.
"""

from __future__ import annotations

from itertools import chain

_RESTART_BASE = 100


def _luby(i: int) -> int:
    # Luby sequence 1,1,2,1,1,2,4,...
    k = 1
    while (1 << (k + 1)) <= i + 1:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
    return 1 << (k - 1)


_FIRST_BUDGET = _RESTART_BASE * _luby(0)


class MiniSolver:
    """Incremental CDCL solver; add clauses, solve under assumptions, add
    more clauses and solve again."""

    def __init__(self):
        self.nvars = 0
        self.clauses = []          # lists of internal lits
        self.watches = [[], []]    # per internal lit (index 0,1 unused)
        self.values = [-1, -1]     # per internal lit: -1 undef / 0 / 1
        self.level = [0]
        self.reason = [None]       # clause index or None
        self.phase = [0]
        self._seen = bytearray(1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True
        # the decision queue (see the module docstring); variable 0 is none
        self.prev = [0]
        self.next = [0]
        self.stamp = [0]           # per var: 0 when not queued
        self.last = 0
        self.search = 0
        self.bumps = 0             # the newest stamp given
        self.preferred = []        # internal literals, decided first
        self._pref_i = 0           # preferred[:_pref_i] need no decision
        self.failed = None         # failed assumptions of the last UNSAT solve
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # ------------------------------------------------------------- setup

    def ensure_vars(self, n: int):
        """Create variables ``nvars + 1 .. n``."""
        k = n - self.nvars
        if k <= 0:
            return
        first = self.nvars + 1
        self.nvars = n
        self.values.extend([-1] * (2 * k))
        self.level.extend([0] * k)
        self.reason.extend([None] * k)
        self.phase.extend([0] * k)
        self._seen.extend(bytes(k))
        self.watches.extend([[] for _ in range(2 * k)])
        # queue n, n-1, ..., first after the old last: first is the newest
        last, bumps = self.last, self.bumps
        self.prev.extend(range(first + 1, n + 1))
        self.prev.append(last)
        self.next.append(0)
        self.next.extend(range(first, n))
        if last:
            self.next[last] = n
        self.stamp.extend(range(bumps + k, bumps, -1))
        self.bumps = bumps + k
        self.last = self.search = first

    def mark_non_decision(self, v: int):
        """Never branch on existing variable ``v`` again: take it off the
        decision queue."""
        if not 0 < v <= self.nvars:
            raise IndexError(f"no variable {v}")
        stamp = self.stamp
        if not stamp[v]:
            return
        prev, nxt = self.prev, self.next
        p, n = prev[v], nxt[v]
        if p:
            nxt[p] = n
        if n:
            prev[n] = p
        else:
            self.last = p
        if self.search == v:
            self.search = p or n
        prev[v] = nxt[v] = stamp[v] = 0

    def prefer(self, lits):
        """Decide these signed literals first, in this order, whenever they
        are unassigned (see the module docstring); replaces the previous
        list.  Literal 0 raises ``ValueError``; the variables are created."""
        lits = tuple(lits)
        if 0 in lits:
            raise ValueError("literal 0 in the preferred literals")
        self.ensure_vars(max(map(abs, lits), default=0))
        self.preferred = [2 * sl if sl > 0 else 1 - 2 * sl for sl in lits]
        self._pref_i = 0

    def add_clause(self, lits) -> bool:
        """Add a clause of signed DIMACS literals; False once UNSAT at root."""
        return self.add_clauses((tuple(lits),))

    def add_clauses(self, clauses) -> bool:
        """Add an iterable of clauses, each a sequence of signed DIMACS
        literals; False once UNSAT at root.

        Clauses are only added at decision level 0 (before/between solves):
        the solver first returns there, then creates every variable the
        clauses name, then loads the clauses in order.  A clause holding
        literal 0 raises ``ValueError`` before any clause is loaded.
        """
        # read once: the checks below and the load each walk the clauses
        clauses = tuple(clauses)
        named = set(chain.from_iterable(clauses))
        if 0 in named:
            raise ValueError("literal 0 in a clause")
        # backtrack before creating variables: the queue order depends on it
        self._cancel_until(0)
        self.ensure_vars(max(map(abs, named), default=0))
        if not self.ok:
            return False
        values, watches, stored = self.values, self.watches, self.clauses
        for lits in clauses:
            if len(lits) == 2:
                # both unassigned, on two variables: what the loop below
                # would store, with the same watches
                a, b = lits
                a = 2 * a if a > 0 else 1 - 2 * a
                b = 2 * b if b > 0 else 1 - 2 * b
                if values[a] < 0 and values[b] < 0 and a ^ b > 1:
                    watches[a].append(len(stored))
                    watches[b].append(len(stored))
                    stored.append([a, b])
                    continue
            internal = []
            for sl in lits:
                lit = 2 * sl if sl > 0 else 1 - 2 * sl
                va = values[lit]
                if va >= 0:
                    if va:
                        break    # true at root: the clause is satisfied
                    continue     # false at root: drop the literal
                if lit in internal:
                    continue
                if lit ^ 1 in internal:
                    break        # tautology
                internal.append(lit)
            else:
                if len(internal) > 1:
                    watches[internal[0]].append(len(stored))
                    watches[internal[1]].append(len(stored))
                    stored.append(internal)
                elif not internal or not self._enqueue(internal[0], None) \
                        or self._propagate() is not None:
                    self.ok = False
                    return False
        return True

    # ------------------------------------------------------ trail control

    def _enqueue(self, lit: int, reason) -> bool:
        values = self.values
        if values[lit] >= 0:
            return values[lit] == 1
        values[lit] = 1
        values[lit ^ 1] = 0
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, target: int):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target:
            return
        trail, values = self.trail, self.values
        phase, stamp = self.phase, self.stamp
        search = self.search
        newest = stamp[search]
        bound = trail_lim[target]
        for lit in reversed(trail[bound:]):
            v = lit >> 1
            phase[v] = (lit & 1) ^ 1
            values[lit] = values[lit ^ 1] = -1
            if stamp[v] > newest:
                search, newest = v, stamp[v]
        self.search = search
        self._pref_i = 0
        del trail[bound:]
        del trail_lim[target:]
        self.qhead = bound

    # --------------------------------------------------------- propagation

    def _propagate(self):
        """Exhaust the propagation queue; return a conflicting clause index."""
        trail, values, clauses = self.trail, self.values, self.clauses
        watches, level, reason = self.watches, self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            # watchers[:kept] are kept; the next ``moved`` were moved away
            watchers = watches[false_lit]
            kept = moved = 0
            for ci in watchers:
                clause = clauses[ci]
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                va = values[first]
                if va == 1:
                    watchers[kept] = ci
                    kept += 1
                    continue
                size = len(clause)
                j = 2
                while j < size:
                    lit = clause[j]
                    if values[lit]:
                        break    # not false: watch it instead
                    j += 1
                if j < size:
                    clause[1] = lit
                    clause[j] = false_lit
                    watches[lit].append(ci)
                    moved += 1
                    continue
                watchers[kept] = ci
                kept += 1
                if va == 0:
                    # conflict: keep the watchers not yet visited
                    del watchers[kept:kept + moved]
                    self.propagations += qhead - start
                    self.qhead = len(trail)
                    return ci
                values[first] = 1
                values[first ^ 1] = 0
                v = first >> 1
                level[v] = lvl
                reason[v] = ci
                trail.append(first)
            del watchers[kept:]
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    # ----------------------------------------------------------- learning

    def _bump_var(self, v):
        """Move queued variable ``v`` to ``last`` with a new stamp."""
        stamp = self.stamp
        if not stamp[v]:
            return
        nxt = self.next
        n = nxt[v]
        if n:
            prev = self.prev
            p = prev[v]
            if p:
                nxt[p] = n
            prev[n] = p
            if self.search == v:
                self.search = p or n
            last = self.last
            nxt[last] = v
            prev[v] = last
            nxt[v] = 0
            self.last = v
        self.bumps += 1
        stamp[v] = self.bumps
        if self.values[2 * v] < 0:
            self.search = v

    def _analyze(self, confl):
        """First-UIP conflict analysis: learnt clause + backtrack level."""
        learnt = [0]
        seen = self._seen
        trail, level, reason = self.trail, self.level, self.reason
        clauses, bump_var = self.clauses, self._bump_var
        counter = 0
        p = -1
        index = len(trail) - 1
        clause = clauses[confl]
        cur_level = len(self.trail_lim)
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    bump_var(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = trail[index]
                index -= 1
                if seen[lit >> 1]:
                    break
            p = lit
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            clause = clauses[reason[v]]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # second watch must sit at the backtrack level
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _record_learnt(self, learnt):
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        idx = len(self.clauses)
        self.clauses.append(learnt)
        self.watches[learnt[0]].append(idx)
        self.watches[learnt[1]].append(idx)
        self._enqueue(learnt[0], idx)

    def _assumptions_behind(self, lits, out: set) -> set:
        """Add to ``out`` the assumptions that, through the reasons on the
        trail, falsify every literal of ``lits`` above level 0; the
        assumption level is open."""
        seen, level, reason = self._seen, self.level, self.reason
        trail, clauses = self.trail, self.clauses
        for q in lits:
            if level[q >> 1] > 0:
                seen[q >> 1] = 1
        for i in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[i]
            v = lit >> 1
            if seen[v]:
                r = reason[v]
                if r is None:
                    out.add(lit)
                else:
                    for q in clauses[r]:
                        qv = q >> 1
                        if qv != v and level[qv] > 0:
                            seen[qv] = 1
                seen[v] = 0
        return out

    # --------------------------------------------------------------- solve

    def _pick_branch(self):
        """The next decision literal, or -1 when every decision variable is
        assigned: the first unassigned preferred literal of a decision
        variable, else the newest unassigned variable of the queue in its
        saved phase."""
        values, stamp = self.values, self.stamp
        preferred = self.preferred
        i = self._pref_i
        n = len(preferred)
        while i < n:
            lit = preferred[i]
            if values[lit] < 0 and stamp[lit >> 1]:
                self._pref_i = i
                return lit
            i += 1
        self._pref_i = n
        prev = self.prev
        v = self.search
        while v and values[2 * v] >= 0:
            v = prev[v]
        self.search = v
        if not v:
            return -1
        return 2 * v + (0 if self.phase[v] == 1 else 1)

    def solve(self, assumptions=()) -> bool:
        """Solve under an iterable of signed assumption literals; literal 0
        raises ``ValueError``."""
        assumptions = tuple(assumptions)
        if 0 in assumptions:
            raise ValueError("literal 0 in the assumptions")
        self.failed = None
        if not self.ok:
            self.failed = []
            return False
        assume = [2 * sl if sl > 0 else 1 - 2 * sl for sl in assumptions]
        self.ensure_vars(max(assume, default=0) >> 1)
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            self.failed = []
            return False

        values, trail, trail_lim = self.values, self.trail, self.trail_lim
        level, reason = self.level, self.reason
        restart_round = 0
        conflict_budget = _FIRST_BUDGET
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    self.failed = []
                    return False
                if assume and len(trail_lim) == 1:
                    # the assumptions alone propagate to a conflict
                    self._fail(self._assumptions_behind(self.clauses[confl],
                                                       set()))
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record_learnt(learnt)
                continue
            if conflicts_here >= conflict_budget:
                restart_round += 1
                conflict_budget = _RESTART_BASE * _luby(restart_round)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            if assume and not trail_lim:
                # (re)open the assumption level and propagate it at once
                trail_lim.append(len(trail))
                for p in assume:
                    va = values[p]
                    if va == 0:
                        # p and the assumptions that imply its negation
                        self._fail(self._assumptions_behind((p,), {p}))
                        return False
                    if va < 0:
                        values[p] = 1
                        values[p ^ 1] = 0
                        level[p >> 1] = 1
                        reason[p >> 1] = None
                        trail.append(p)
                continue
            next_lit = self._pick_branch()
            if next_lit == -1:
                return True  # every decision variable assigned
            self.decisions += 1
            trail_lim.append(len(trail))
            values[next_lit] = 1
            values[next_lit ^ 1] = 0
            level[next_lit >> 1] = len(trail_lim)
            reason[next_lit >> 1] = None
            trail.append(next_lit)

    def _fail(self, failed: set):
        """Keep ``failed`` (internal literals) as the failed assumptions and
        return to level 0."""
        self.failed = sorted((lit >> 1) * (1 if lit & 1 == 0 else -1)
                             for lit in failed)
        self._cancel_until(0)

    # --------------------------------------------------------------- model

    def value(self, var: int):
        """Truth value of a variable after a SAT solve (None if unassigned)."""
        va = self.values[2 * var]
        return None if va < 0 else bool(va)

    def model(self):
        return [x == 1 for x in self.values[::2]]

    def failed_assumptions(self):
        return list(self.failed) if self.failed is not None else None
