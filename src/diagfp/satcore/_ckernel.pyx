# distutils: language = c++
# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled CDCL kernel; algorithm and interface mirror pysolver.MiniSolver,
non-decision variables (``set_decision_var``) included.

Clauses live in a flat arena (offset/size per clause) and watch lists hold
clause indices.  See pysolver.py for the commented reference implementation.
This file is the only source of the extension: ``setup.py`` cythonizes it
at build time, and no generated C++ is kept.
"""

from libcpp.vector cimport vector

DEF RESTART_BASE = 100
DEF ACT_RESCALE = 1e100


cdef int _luby(int i):
    cdef int k = 1
    while (1 << (k + 1)) <= i + 1:
        k += 1
    while (1 << k) - 1 != i + 1:
        i = i - (1 << k) + 1
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
    return 1 << (k - 1)


cdef class MiniSolver:
    cdef vector[int] cstart
    cdef vector[int] csize
    cdef vector[int] arena
    cdef vector[vector[int]] watches
    cdef vector[signed char] assign_
    cdef vector[int] level
    cdef vector[int] reason            # -1 means no reason
    cdef vector[signed char] phase
    cdef vector[signed char] decision
    cdef vector[double] activity
    cdef vector[signed char] seen
    cdef vector[int] trail
    cdef vector[int] trail_lim
    cdef vector[int] heap
    cdef vector[int] hpos
    cdef int _nvars
    cdef int qhead
    cdef bint _ok
    cdef double bump
    cdef object _failed
    cdef public long conflicts, decisions, propagations

    def __cinit__(self):
        self._nvars = 0
        self.qhead = 0
        self._ok = True
        self.bump = 1.0
        self._failed = None
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.assign_.push_back(-1)
        self.level.push_back(0)
        self.reason.push_back(-1)
        self.phase.push_back(0)
        self.decision.push_back(0)
        self.activity.push_back(0.0)
        self.seen.push_back(0)
        self.hpos.push_back(-1)
        self.watches.resize(2)

    @property
    def nvars(self):
        return self._nvars

    @property
    def ok(self):
        return self._ok

    # ------------------------------------------------------------- heap

    cdef void _heap_up(self, int i):
        cdef int v = self.heap[i]
        cdef double a = self.activity[v]
        cdef int parent
        while i > 0:
            parent = (i - 1) >> 1
            if a <= self.activity[self.heap[parent]]:
                break
            self.heap[i] = self.heap[parent]
            self.hpos[self.heap[i]] = i
            i = parent
        self.heap[i] = v
        self.hpos[v] = i

    cdef void _heap_down(self, int i):
        cdef int v = self.heap[i]
        cdef double a = self.activity[v]
        cdef int n = <int>self.heap.size()
        cdef int left, right, child
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = left
            if right < n and self.activity[self.heap[right]] > \
                    self.activity[self.heap[left]]:
                child = right
            if self.activity[self.heap[child]] <= a:
                break
            self.heap[i] = self.heap[child]
            self.hpos[self.heap[i]] = i
            i = child
        self.heap[i] = v
        self.hpos[v] = i

    cdef void _heap_push(self, int v):
        if self.hpos[v] >= 0:
            return
        self.heap.push_back(v)
        self.hpos[v] = <int>self.heap.size() - 1
        self._heap_up(self.hpos[v])

    cdef int _heap_pop(self):
        cdef int top = self.heap[0]
        cdef int last = self.heap[self.heap.size() - 1]
        self.heap.pop_back()
        self.hpos[top] = -1
        if self.heap.size() > 0:
            self.heap[0] = last
            self.hpos[last] = 0
            self._heap_down(0)
        return top

    # ------------------------------------------------------------- setup

    def ensure_vars(self, int n):
        """Create variables ``nvars + 1 .. n``."""
        cdef int v
        for v in range(self._nvars + 1, n + 1):
            self.assign_.push_back(-1)
            self.level.push_back(0)
            self.reason.push_back(-1)
            self.phase.push_back(0)
            self.decision.push_back(1)
            self.activity.push_back(0.0)
            self.seen.push_back(0)
            # a new variable has activity 0 and no activity is negative, so
            # it stays the leaf it is appended as
            self.hpos.push_back(<int>self.heap.size())
            self.heap.push_back(v)
        if n > self._nvars:
            self.watches.resize(2 * n + 2)
            self._nvars = n

    def set_decision_var(self, int v, bint flag):
        if not 0 < v <= self._nvars:
            raise IndexError(f"no variable {v}")
        self.decision[v] = flag
        if flag and self.assign_[v] < 0:
            self._heap_push(v)

    cdef inline int _value(self, int lit):
        cdef signed char va = self.assign_[lit >> 1]
        if va < 0:
            return -1
        return va ^ (lit & 1)

    def add_clause(self, lits):
        return self.add_clauses((lits,))

    def add_clauses(self, clauses):
        """Return to decision level 0, create every variable the clauses
        name, then load them in order; False once UNSAT at root."""
        cdef int v
        cdef int top = 0
        # backtrack before creating variables: the heap order depends on it
        self._cancel_until(0)
        for cl in clauses:
            for sl in cl:
                v = abs(<int>sl)
                if v > top:
                    top = v
        self.ensure_vars(top)
        if not self._ok:
            return False
        for cl in clauses:
            if not self._add(cl):
                return False
        return True

    cdef bint _add(self, lits):
        """Load one clause at level 0 over existing variables; False, with
        ``ok`` cleared, when it makes the clauses UNSAT at root."""
        cdef vector[int] internal
        cdef int v, lit, val, i
        cdef bint dup
        for sl in lits:
            v = abs(<int>sl)
            lit = 2 * v + (1 if sl < 0 else 0)
            dup = False
            for i in range(<int>internal.size()):
                if internal[i] == (lit ^ 1):
                    return True  # tautology
                if internal[i] == lit:
                    dup = True
            if dup:
                continue
            val = self._value(lit)
            if val == 1:
                return True
            if val == 0:
                continue
            internal.push_back(lit)
        if internal.size() == 0:
            self._ok = False
            return False
        if internal.size() == 1:
            if not self._enqueue(internal[0], -1):
                self._ok = False
                return False
            self._ok = self._propagate() < 0
            return self._ok
        cdef int idx = <int>self.cstart.size()
        self.cstart.push_back(<int>self.arena.size())
        self.csize.push_back(<int>internal.size())
        for i in range(<int>internal.size()):
            self.arena.push_back(internal[i])
        self.watches[internal[0]].push_back(idx)
        self.watches[internal[1]].push_back(idx)
        return True

    # ------------------------------------------------------ trail control

    cdef inline int _decision_level(self):
        return <int>self.trail_lim.size()

    cdef inline void _new_level(self):
        self.trail_lim.push_back(<int>self.trail.size())

    cdef bint _enqueue(self, int lit, int reason):
        cdef int val = self._value(lit)
        if val >= 0:
            return val == 1
        cdef int v = lit >> 1
        self.assign_[v] = <signed char>(1 - (lit & 1))
        self.level[v] = self._decision_level()
        self.reason[v] = reason
        self.trail.push_back(lit)
        return True

    cdef void _cancel_until(self, int target):
        if self._decision_level() <= target:
            return
        cdef int bound = self.trail_lim[target]
        cdef int i, lit, v
        for i in range(<int>self.trail.size() - 1, bound - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            self.phase[v] = self.assign_[v]
            self.assign_[v] = -1
            self.reason[v] = -1
            if self.decision[v]:
                self._heap_push(v)
        self.trail.resize(bound)
        self.trail_lim.resize(target)
        self.qhead = bound

    # --------------------------------------------------------- propagation

    cdef int _propagate(self):
        """Returns conflicting clause index, or -1."""
        cdef int p, false_lit, ci, first, start, size, j, k
        cdef int read, write, n
        cdef vector[int]* wl
        while self.qhead < <int>self.trail.size():
            p = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = p ^ 1
            wl = &self.watches[false_lit]
            n = <int>wl[0].size()
            read = 0
            write = 0
            while read < n:
                ci = wl[0][read]
                read += 1
                start = self.cstart[ci]
                size = self.csize[ci]
                if self.arena[start] == false_lit:
                    self.arena[start] = self.arena[start + 1]
                    self.arena[start + 1] = false_lit
                first = self.arena[start]
                if self._value(first) == 1:
                    wl[0][write] = ci
                    write += 1
                    continue
                j = -1
                for k in range(start + 2, start + size):
                    if self._value(self.arena[k]) != 0:
                        j = k
                        break
                if j >= 0:
                    self.arena[start + 1] = self.arena[j]
                    self.arena[j] = false_lit
                    self.watches[self.arena[start + 1]].push_back(ci)
                    continue
                wl[0][write] = ci
                write += 1
                if self._value(first) == 0:
                    while read < n:
                        wl[0][write] = wl[0][read]
                        write += 1
                        read += 1
                    wl[0].resize(write)
                    self.qhead = <int>self.trail.size()
                    return ci
                self._enqueue(first, ci)
            wl[0].resize(write)
        return -1

    # ----------------------------------------------------------- learning

    cdef void _bump_var(self, int v):
        cdef int u
        self.activity[v] += self.bump
        if self.activity[v] > ACT_RESCALE:
            for u in range(1, self._nvars + 1):
                self.activity[u] *= 1e-100
            self.bump *= 1e-100
        if self.hpos[v] >= 0:
            self._heap_up(self.hpos[v])

    cdef void _analyze(self, int confl, vector[int]& learnt, int* bt_level):
        cdef int counter = 0
        cdef int p = -1
        cdef int index = <int>self.trail.size() - 1
        cdef int cur_level = self._decision_level()
        cdef int ci = confl
        cdef int start, size, k, q, v, lit, i, max_i, tmp
        learnt.clear()
        learnt.push_back(0)
        while True:
            start = self.cstart[ci]
            size = self.csize[ci]
            for k in range(start, start + size):
                q = self.arena[k]
                if q == p:
                    continue
                v = q >> 1
                if self.seen[v] == 0 and self.level[v] > 0:
                    self.seen[v] = 1
                    self._bump_var(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.push_back(q)
            while True:
                lit = self.trail[index]
                index -= 1
                if self.seen[lit >> 1]:
                    break
            p = lit
            v = p >> 1
            self.seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[v]
        learnt[0] = p ^ 1
        for i in range(1, <int>learnt.size()):
            self.seen[learnt[i] >> 1] = 0
        if learnt.size() == 1:
            bt_level[0] = 0
            return
        max_i = 1
        for i in range(2, <int>learnt.size()):
            if self.level[learnt[i] >> 1] > self.level[learnt[max_i] >> 1]:
                max_i = i
        tmp = learnt[1]
        learnt[1] = learnt[max_i]
        learnt[max_i] = tmp
        bt_level[0] = self.level[learnt[1] >> 1]

    cdef void _record_learnt(self, vector[int]& learnt):
        cdef int idx, i
        if learnt.size() == 1:
            self._enqueue(learnt[0], -1)
            return
        idx = <int>self.cstart.size()
        self.cstart.push_back(<int>self.arena.size())
        self.csize.push_back(<int>learnt.size())
        for i in range(<int>learnt.size()):
            self.arena.push_back(learnt[i])
        self.watches[learnt[0]].push_back(idx)
        self.watches[learnt[1]].push_back(idx)
        self._enqueue(learnt[0], idx)

    cdef object _analyze_final(self, int p):
        cdef set out = {p}
        if self._decision_level() == 0:
            return out
        cdef int i, lit, v, r, k, q, start, size
        self.seen[p >> 1] = 1
        for i in range(<int>self.trail.size() - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            if self.seen[v]:
                r = self.reason[v]
                if r < 0:
                    out.add(lit)
                else:
                    start = self.cstart[r]
                    size = self.csize[r]
                    for k in range(start, start + size):
                        q = self.arena[k]
                        if (q >> 1) != v and self.level[q >> 1] > 0:
                            self.seen[q >> 1] = 1
                self.seen[v] = 0
        self.seen[p >> 1] = 0
        return out

    # --------------------------------------------------------------- solve

    cdef int _pick_branch(self):
        cdef int v
        while self.heap.size() > 0:
            v = self._heap_pop()
            if self.assign_[v] < 0 and self.decision[v]:
                return 2 * v + (0 if self.phase[v] == 1 else 1)
        return -1

    def solve(self, assumptions=()):
        self._failed = None
        if not self._ok:
            self._failed = []
            return False
        cdef vector[int] assume
        cdef int sl_i, v
        cdef int top = 0
        for sl in assumptions:
            sl_i = <int>sl
            v = abs(sl_i)
            if v > top:
                top = v
            assume.push_back(2 * v + (1 if sl_i < 0 else 0))
        self.ensure_vars(top)
        self._cancel_until(0)
        if self._propagate() >= 0:
            self._ok = False
            self._failed = []
            return False

        cdef int restart_round = 0
        cdef long conflict_budget = RESTART_BASE * _luby(0)
        cdef long conflicts_here = 0
        cdef int confl, bt, next_lit, p, val, lit
        cdef vector[int] learnt
        cdef object failed
        while True:
            confl = self._propagate()
            if confl >= 0:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    self._failed = []
                    return False
                self._analyze(confl, learnt, &bt)
                self._cancel_until(bt)
                self._record_learnt(learnt)
                self.bump *= (1.0 / 0.95)
                continue
            if conflicts_here >= conflict_budget:
                restart_round += 1
                conflict_budget = RESTART_BASE * _luby(restart_round)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            next_lit = -1
            while self._decision_level() < <int>assume.size():
                p = assume[self._decision_level()]
                val = self._value(p)
                if val == 1:
                    self._new_level()
                elif val == 0:
                    failed = self._analyze_final(p)
                    self._failed = sorted(
                        (lit_ >> 1) * (1 if (lit_ & 1) == 0 else -1)
                        for lit_ in failed)
                    self._cancel_until(0)
                    return False
                else:
                    next_lit = p
                    break
            if next_lit == -1:
                next_lit = self._pick_branch()
                if next_lit == -1:
                    return True
                self.decisions += 1
            self._new_level()
            self._enqueue(next_lit, -1)

    # --------------------------------------------------------------- model

    def value(self, int var):
        cdef signed char va = self.assign_[var]
        return None if va < 0 else bool(va)

    def model(self):
        return [bool(self.assign_[v]) if self.assign_[v] >= 0 else False
                for v in range(self._nvars + 1)]

    def failed_assumptions(self):
        return list(self._failed) if self._failed is not None else None
