"""Pure-Python CDCL solver with assumption support.

Minisat-style engine: two-watched-literal propagation, first-UIP clause
learning, activity-ordered decisions with phase saving, Luby restarts.
Solving under assumptions yields, on UNSAT, a subset of the assumptions
sufficient for unsatisfiability (``failed_assumptions``); re-solving under
only that subset stays UNSAT.  The solver is incremental: clauses may be
added between solves (``add_clause`` first returns to decision level 0),
and learnt clauses, activities and saved phases carry over to the next
solve.  No clause deletion: workloads here are bounded-size encodings whose
tests add few clauses.

A variable can be marked non-decision (``set_decision_var(v, False)``, as
MiniSat's ``setDecisionVar``): the solver never branches on it, so it is
assigned only by an assumption or by propagation and may stay unassigned in
a model.  This is meant for selector literals that occur only negatively in
every clause: such a literal, left unassigned, extends to false and the
model still satisfies every clause.

Literals use the DIMACS convention externally (signed non-zero ints) and the
``2*var + sign`` packing internally.
"""

from __future__ import annotations

_RESTART_BASE = 100
_ACT_BUMP = 1.0
_ACT_DECAY = 1.0 / 0.95
_ACT_RESCALE = 1e100


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


class _VarHeap:
    """Indexed max-heap over variable activities."""

    def __init__(self, activity):
        self.act = activity
        self.heap = []
        self.pos = []

    def grow(self, nvars):
        while len(self.pos) <= nvars:
            self.pos.append(-1)

    def _less(self, u, v):
        return self.act[u] > self.act[v]

    def _up(self, i):
        heap, pos = self.heap, self.pos
        v = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if not self._less(v, heap[parent]):
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _down(self, i):
        heap, pos = self.heap, self.pos
        v = heap[i]
        n = len(heap)
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = right if right < n and self._less(heap[right], heap[left]) \
                else left
            if not self._less(heap[child], v):
                break
            heap[i] = heap[child]
            pos[heap[i]] = i
            i = child
        heap[i] = v
        pos[v] = i

    def push(self, v):
        if self.pos[v] >= 0:
            return
        self.heap.append(v)
        self.pos[v] = len(self.heap) - 1
        self._up(len(self.heap) - 1)

    def pop(self):
        heap, pos = self.heap, self.pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._down(0)
        return top

    def bumped(self, v):
        if self.pos[v] >= 0:
            self._up(self.pos[v])

    def __bool__(self):
        return bool(self.heap)


class MiniSolver:
    """Incremental CDCL solver; add clauses, solve under assumptions, add
    more clauses and solve again."""

    def __init__(self):
        self.nvars = 0
        self.clauses = []          # lists of internal lits
        self.watches = [[], []]    # per internal lit (index 0,1 unused)
        self.assign = [-1]         # per var: -1 undef / 0 false / 1 true
        self.level = [0]
        self.reason = [None]       # clause index or None
        self.phase = [0]
        self.decision = [False]    # per var: may the solver branch on it
        self.activity = [0.0]
        self._seen = bytearray(1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True
        self._heap = _VarHeap(self.activity)
        self._bump = _ACT_BUMP
        self.failed = None         # failed assumptions of the last UNSAT solve
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # ------------------------------------------------------------- setup

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(None)
        self.phase.append(0)
        self.decision.append(True)
        self.activity.append(0.0)
        self._seen.append(0)
        self.watches.append([])
        self.watches.append([])
        self._heap.grow(self.nvars)
        self._heap.push(self.nvars)
        return self.nvars

    def ensure_vars(self, n: int):
        while self.nvars < n:
            self.new_var()

    def set_decision_var(self, v: int, flag: bool):
        """Allow (True) or forbid (False) branching on existing variable
        ``v``."""
        if not 0 < v <= self.nvars:
            raise IndexError(f"no variable {v}")
        self.decision[v] = flag
        if flag and self.assign[v] < 0:
            self._heap.push(v)

    def _value(self, lit: int) -> int:
        va = self.assign[lit >> 1]
        if va < 0:
            return -1
        return va ^ (lit & 1)

    def add_clause(self, lits) -> bool:
        """Add a clause of signed DIMACS literals; False once UNSAT at root.

        Clauses are only added at decision level 0 (before/between solves).
        """
        if not self.ok:
            return False
        self._cancel_until(0)
        internal = []
        seen = set()
        for sl in lits:
            v = abs(sl)
            self.ensure_vars(v)
            lit = 2 * v + (1 if sl < 0 else 0)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self._value(lit)
            if val == 1:
                return True  # satisfied at root
            if val == 0:
                continue     # false at root: drop the literal
            seen.add(lit)
            internal.append(lit)
        if not internal:
            self.ok = False
            return False
        if len(internal) == 1:
            if not self._enqueue(internal[0], None):
                self.ok = False
                return False
            self.ok = self._propagate() is None
            return self.ok
        idx = len(self.clauses)
        self.clauses.append(internal)
        self.watches[internal[0]].append(idx)
        self.watches[internal[1]].append(idx)
        return True

    def add_clauses(self, clauses) -> bool:
        ok = True
        for cl in clauses:
            ok = self.add_clause(cl) and ok
        return ok

    # ------------------------------------------------------ trail control

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _new_level(self):
        self.trail_lim.append(len(self.trail))

    def _enqueue(self, lit: int, reason) -> bool:
        val = self._value(lit)
        if val >= 0:
            return val == 1
        v = lit >> 1
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = self._decision_level()
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, target: int):
        if self._decision_level() <= target:
            return
        bound = self.trail_lim[target]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            self.phase[v] = self.assign[v]
            self.assign[v] = -1
            self.reason[v] = None
            if self.decision[v]:
                self._heap.push(v)
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # --------------------------------------------------------- propagation

    def _propagate(self):
        """Exhaust the propagation queue; return a conflicting clause index."""
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = p ^ 1
            watchers = self.watches[false_lit]
            kept = []
            i = 0
            n = len(watchers)
            while i < n:
                ci = watchers[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != 0:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches[clause[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(first) == 0:
                    kept.extend(watchers[i:n])
                    del watchers[:]
                    watchers.extend(kept)
                    self.qhead = len(self.trail)
                    return ci
                self._enqueue(first, ci)
            del watchers[:]
            watchers.extend(kept)
        return None

    # ----------------------------------------------------------- learning

    def _bump_var(self, v):
        self.activity[v] += self._bump
        if self.activity[v] > _ACT_RESCALE:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self._bump *= 1e-100
        self._heap.bumped(v)

    def _analyze(self, confl):
        """First-UIP conflict analysis: learnt clause + backtrack level."""
        learnt = [0]
        seen = self._seen
        counter = 0
        p = -1
        index = len(self.trail) - 1
        clause = self.clauses[confl]
        cur_level = self._decision_level()
        while True:
            for q in clause:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = self.trail[index]
                index -= 1
                if seen[lit >> 1]:
                    break
            p = lit
            v = p >> 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[v]]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            return learnt, 0
        # second watch must sit at the backtrack level
        max_i = 1
        for i in range(2, len(learnt)):
            if self.level[learnt[i] >> 1] > self.level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _record_learnt(self, learnt):
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        idx = len(self.clauses)
        self.clauses.append(learnt)
        self.watches[learnt[0]].append(idx)
        self.watches[learnt[1]].append(idx)
        self._enqueue(learnt[0], idx)

    def _analyze_final(self, p: int) -> set:
        """Assumption literals (internal) whose conjunction is refuted, given
        the falsified assumption literal ``p``."""
        out = {p}
        if self._decision_level() == 0:
            return out
        seen = self._seen
        seen[p >> 1] = 1
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            if seen[v]:
                r = self.reason[v]
                if r is None:
                    out.add(lit)
                else:
                    for q in self.clauses[r]:
                        qv = q >> 1
                        if qv != v and self.level[qv] > 0:
                            seen[qv] = 1
                seen[v] = 0
        seen[p >> 1] = 0
        return out

    # --------------------------------------------------------------- solve

    def _pick_branch(self):
        heap = self._heap
        while heap:
            v = heap.pop()  # non-decision variables are dropped here
            if self.assign[v] < 0 and self.decision[v]:
                return 2 * v + (0 if self.phase[v] == 1 else 1)
        return -1

    def solve(self, assumptions=()) -> bool:
        """Solve under the given signed assumption literals."""
        self.failed = None
        if not self.ok:
            self.failed = []
            return False
        for sl in assumptions:
            self.ensure_vars(abs(sl))
        assume = [2 * abs(sl) + (1 if sl < 0 else 0) for sl in assumptions]
        self._cancel_until(0)
        if self._propagate() is not None:
            self.ok = False
            self.failed = []
            return False

        restart_round = 0
        conflict_budget = _RESTART_BASE * _luby(0)
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self.ok = False
                    self.failed = []
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._record_learnt(learnt)
                self._bump *= _ACT_DECAY
                continue
            if conflicts_here >= conflict_budget:
                restart_round += 1
                conflict_budget = _RESTART_BASE * _luby(restart_round)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            next_lit = -1
            while self._decision_level() < len(assume):
                p = assume[self._decision_level()]
                val = self._value(p)
                if val == 1:
                    self._new_level()
                elif val == 0:
                    failed = self._analyze_final(p)
                    self.failed = sorted(
                        (lit >> 1) * (1 if lit & 1 == 0 else -1)
                        for lit in failed)
                    self._cancel_until(0)
                    return False
                else:
                    next_lit = p
                    break
            if next_lit == -1:
                next_lit = self._pick_branch()
                if next_lit == -1:
                    return True  # every decision variable assigned
                self.decisions += 1
            self._new_level()
            self._enqueue(next_lit, None)

    # --------------------------------------------------------------- model

    def value(self, var: int):
        """Truth value of a variable after a SAT solve (None if unassigned)."""
        va = self.assign[var]
        return None if va < 0 else bool(va)

    def model(self):
        return [bool(self.assign[v]) if self.assign[v] >= 0 else False
                for v in range(self.nvars + 1)]

    def failed_assumptions(self):
        return list(self.failed) if self.failed is not None else None
