"""Hypothesis spaces: values, preference order, children and least common
descendants.

Four space variants are supported.  A hypothesis is an immutable value whose
payload depends on the variant:

* ``shs``  -- frozenset of fault names (which faults occurred),
* ``mhs``  -- sorted tuple of fault names, one entry per occurrence,
* ``sqhs`` -- tuple of fault names in occurrence order,
* ``bhs``  -- bool (``True`` = faulty).

Preference (``leq``) is subset / pointwise-at-most / subsequence / implication
respectively; on sorted words pointwise-at-most is the subsequence order, so
``mhs`` and ``sqhs`` share it.  All operations are pure; results that are
mathematically sets are returned as lists sorted by :func:`order_key` so
every run is reproducible.  The sort order is a tie-break only and carries
no preference meaning.

The order operations (``leq``, ``children``, ``otimes`` and what builds on
them) take hypotheses of ``space``.  They compare kinds, because they read
``h.data`` in the layout of ``space.kind``, but not the fault alphabet: that
is checked once per request, when a :class:`~diagfp.contract.TestRequest`
is built (:meth:`Space.validate`), and a solver decodes answers only
over its own alphabet.  An operation over a collection (:func:`any_leq`,
:func:`min_antichain`, ``properties.member``) reads ``space.kind`` once and
compares payloads directly by ``PAYLOAD_LEQ``, the orders :func:`leq`
applies, checking each element's kind as it goes.

A :class:`Hypothesis` is a named tuple ``(kind, data)``: its equality and
hash are the tuple's, computed in C, and equal to what ``(kind, data)``
gives, so every set and dict of hypotheses iterates in the same order.  Its
fields are read-only; its ``count`` counts faults, not tuple elements.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from itertools import product as iproduct
from typing import NamedTuple

from .errors import DiagError, ModelFormatError, SpaceMismatchError

BHS = "bhs"
SHS = "shs"
MHS = "mhs"
SQHS = "sqhs"

KINDS = (BHS, SHS, MHS, SQHS)

# The syntax of canon(); a fault name holding one of these would make two
# hypotheses render alike.  Every text format splits on whitespace, so
# whitespace is refused too.
_RESERVED = frozenset(",:[]{}")


def check_fault_name(name: str, line=None) -> None:
    """Reject an event or gate name that ``canon()`` could not render
    unambiguously as a fault."""
    if not name:
        raise ModelFormatError("empty name", line=line)
    if not _RESERVED.isdisjoint(name):
        raise ModelFormatError(
            f"name {name!r} holds one of {''.join(sorted(_RESERVED))}",
            line=line)
    if any(c.isspace() for c in name):
        raise ModelFormatError(f"name {name!r} holds whitespace", line=line)


class Hypothesis(NamedTuple):
    """A point of one hypothesis space; compare only within one space."""

    kind: str
    data: object

    def canon(self) -> str:
        """Canonical text rendering, shared by CLI output and JSON."""
        if self.kind == SHS:
            return "{" + ",".join(sorted(self.data)) + "}"
        if self.kind == MHS:
            return "{" + ",".join(f"{f}:{len(list(run))}"
                                  for f, run in groupby(self.data)) + "}"
        if self.kind == SQHS:
            return "[" + ",".join(self.data) + "]"
        return "faulty" if self.data else "nominal"

    def size(self) -> int:
        """Total number of fault occurrences recorded by the hypothesis."""
        if self.kind == BHS:
            return 1 if self.data else 0
        return len(self.data)

    def count(self, fault) -> int:
        """Occurrences of ``fault`` (this shadows ``tuple.count``)."""
        if self.kind in (MHS, SQHS):
            return self.data.count(fault)
        if self.kind == SHS:
            return 1 if fault in self.data else 0
        raise DiagError("count() undefined on bhs")

    def __repr__(self):
        return f"<{self.kind} {self.canon()}>"


def set_hyp(faults) -> Hypothesis:
    return Hypothesis(SHS, frozenset(faults))


def multi_hyp(counts) -> Hypothesis:
    word = []
    for f, c in dict(counts).items():
        if c < 0:
            raise DiagError(f"negative count {c} of fault {f!r}")
        word.extend([f] * c)
    return Hypothesis(MHS, tuple(sorted(word)))


def seq_hyp(seq) -> Hypothesis:
    return Hypothesis(SQHS, tuple(seq))


def bin_hyp(faulty: bool) -> Hypothesis:
    return Hypothesis(BHS, bool(faulty))


@lru_cache(maxsize=1024)
def order_key(h: Hypothesis):
    """Deterministic total tie-break: size first, then canonical encoding.
    Cached, since a strategy asks for the key of a hypothesis several times
    (sorting children, inserting, minimising) and ``canon()`` renders a
    string.  1024 entries hold every key the benchmark pools ask for (800
    distinct hypotheses over the whole circuit-pfs pool, at most 51 on the
    DES pools); a 12-bit adder run keys 19,149, mostly once, and 4096
    entries would raise its hit rate only from 0.267 to 0.278."""
    return (h.size(), h.canon())


@dataclass(frozen=True)
class Space:
    """A hypothesis space: variant tag plus the declared fault alphabet."""

    kind: str
    faults: tuple
    # Set here, not by a cached_property: on CPython 3.11 writing the
    # instance __dict__ later makes every load of ``kind``, which the
    # strategies and solvers do per search node, several times slower.
    fault_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DiagError(f"unknown space kind {self.kind!r}")
        if len(set(self.faults)) != len(self.faults):
            raise DiagError("fault alphabet has duplicates")
        for f in self.faults:
            check_fault_name(f)
        object.__setattr__(self, "fault_set", frozenset(self.faults))

    @property
    def h0(self) -> Hypothesis:
        """The unique most preferred hypothesis (nominal behaviour)."""
        if self.kind == SHS:
            return set_hyp([])
        if self.kind == MHS:
            return multi_hyp({})
        if self.kind == SQHS:
            return seq_hyp([])
        return bin_hyp(False)

    def validate(self, hyps) -> None:
        """Check each of ``hyps`` against the space: its kind, and but for
        ``bhs`` its faults against the alphabet.  A request checks all its
        anchors with one call."""
        kind = self.kind
        within = self.fault_set.issuperset
        for h in hyps:
            hk, hd = h
            if hk != kind:
                raise SpaceMismatchError(
                    f"hypothesis of kind {hk!r} used in {kind!r} space")
            if kind != BHS and not within(hd):
                raise SpaceMismatchError(
                    f"{h.canon()} mentions faults outside the alphabet")

    def is_finite(self) -> bool:
        return self.kind in (BHS, SHS)

    def enumerate(self, bound: int):
        """All hypotheses of the space, limited by ``bound`` for the infinite
        variants (max count for mhs, max length for sqhs)."""
        if self.kind == BHS:
            return [bin_hyp(False), bin_hyp(True)]
        if self.kind == SHS:
            out = []
            n = len(self.faults)
            for mask in range(1 << n):
                out.append(set_hyp(f for i, f in enumerate(self.faults)
                                   if mask >> i & 1))
            return sorted(out, key=order_key)
        if self.kind == MHS:
            ranges = [range(bound + 1)] * len(self.faults)
            out = [multi_hyp(dict(zip(self.faults, counts)))
                   for counts in iproduct(*ranges)]
            return sorted(set(out), key=order_key)
        out = [seq_hyp(())]
        frontier = [()]
        for _ in range(bound):
            frontier = [seq + (f,) for seq in frontier for f in self.faults]
            out.extend(seq_hyp(s) for s in frontier)
        return sorted(out, key=order_key)


def _is_subsequence(a: tuple, b: tuple) -> bool:
    """Is ``a`` a subsequence of ``b``: the order of ``mhs`` and ``sqhs``
    payloads."""
    if len(a) > len(b):
        return False
    it = iter(b)
    return all(x in it for x in a)


def _implies(a: bool, b: bool) -> bool:
    """The order of ``bhs`` payloads: nominal before faulty."""
    return not a or b


# The order of each kind's payloads.  :func:`leq` and ``properties.member``
# compare ``shs`` frozensets, the common case, by ``<=`` inline.
PAYLOAD_LEQ = {SHS: operator.le, MHS: _is_subsequence, SQHS: _is_subsequence,
               BHS: _implies}


def _mismatch(h: Hypothesis, space: Space) -> SpaceMismatchError:
    return SpaceMismatchError(f"{h!r} in {space.kind!r} space")


def extend(h: Hypothesis, fault) -> Hypothesis:
    """The hypothesis of ``h``'s fault word followed by one more ``fault``."""
    if h.kind == SHS:
        return set_hyp(h.data | {fault})
    if h.kind == MHS:
        i = bisect_right(h.data, fault)
        return Hypothesis(MHS, h.data[:i] + (fault,) + h.data[i:])
    if h.kind == SQHS:
        return Hypothesis(SQHS, h.data + (fault,))
    return bin_hyp(True)


def word_hyp(word, space: Space) -> Hypothesis:
    """The hypothesis of the fault word ``word`` (a sequence of faults) in
    ``space``: what :func:`extend` gives fault by fault from ``space.h0``."""
    kind = space.kind
    if kind == SHS:
        return set_hyp(word)
    if kind == MHS:
        return Hypothesis(MHS, tuple(sorted(word)))
    if kind == SQHS:
        return seq_hyp(word)
    return bin_hyp(bool(word))


def leq(a: Hypothesis, b: Hypothesis, space: Space) -> bool:
    """Preference order: True iff ``a`` is preferred-or-equal to ``b``."""
    if a.kind != space.kind or b.kind != space.kind:
        raise SpaceMismatchError(f"{a!r}, {b!r} in {space.kind!r} space")
    if space.kind == SHS:
        return a.data <= b.data
    return PAYLOAD_LEQ[space.kind](a.data, b.data)


def any_leq(hyps, h: Hypothesis, space: Space) -> bool:
    """Is some element of ``hyps`` ``leq`` to ``h``?  The order is chosen
    once for the collection; ``h`` and each element scanned must be of
    ``space``."""
    kind = space.kind
    hk, b = h
    if hk != kind:
        raise _mismatch(h, space)
    le = PAYLOAD_LEQ[kind]
    for g in hyps:
        gk, a = g
        if gk != kind:
            raise _mismatch(g, space)
        if le(a, b):
            return True
    return False


def lt(a: Hypothesis, b: Hypothesis, space: Space) -> bool:
    return a != b and leq(a, b, space)


def children(h: Hypothesis, space: Space) -> list:
    """Minimal strict descendants of ``h`` (a finite antichain)."""
    if h.kind != space.kind:
        raise _mismatch(h, space)
    if space.kind == SHS:
        out = {set_hyp(h.data | {f}) for f in space.faults if f not in h.data}
    elif space.kind == MHS:
        out = {extend(h, f) for f in space.faults}
    elif space.kind == SQHS:
        seq = h.data
        out = set()
        for f in space.faults:
            for i in range(len(seq) + 1):
                out.add(seq_hyp(seq[:i] + (f,) + seq[i:]))
    else:
        out = set() if h.data else {bin_hyp(True)}
    return sorted(out, key=order_key)


def _seq_merge(a: tuple, b: tuple, memo: dict) -> frozenset:
    """Shuffle-merge of two sequences: advance in a, in b, or in both when the
    heads coincide."""
    key = (a, b)
    got = memo.get(key)
    if got is not None:
        return got
    if not a:
        res = frozenset({b})
    elif not b:
        res = frozenset({a})
    else:
        acc = set()
        for rest in _seq_merge(a[1:], b, memo):
            acc.add((a[0],) + rest)
        for rest in _seq_merge(a, b[1:], memo):
            acc.add((b[0],) + rest)
        if a[0] == b[0]:
            for rest in _seq_merge(a[1:], b[1:], memo):
                acc.add((a[0],) + rest)
        res = frozenset(acc)
    memo[key] = res
    return res


def otimes(a: Hypothesis, b: Hypothesis, space: Space) -> list:
    """Least common descendants of ``a`` and ``b``."""
    if a.kind != space.kind or b.kind != space.kind:
        raise SpaceMismatchError(f"{a!r}, {b!r} in {space.kind!r} space")
    if space.kind == SHS:
        return [set_hyp(a.data | b.data)]
    if space.kind == MHS:
        ad, bd = a.data, b.data
        return [multi_hyp({f: max(ad.count(f), bd.count(f))
                           for f in set(ad + bd)})]
    if space.kind == SQHS:
        merged = [seq_hyp(s) for s in _seq_merge(a.data, b.data, {})]
        return min_antichain(merged, space)
    return [bin_hyp(a.data or b.data)]


def min_antichain(hyps, space: Space) -> list:
    """Minimal elements of a finite hypothesis set."""
    items = sorted(set(hyps), key=order_key)
    out = []
    for h in items:
        if not any_leq(out, h, space):
            out.append(h)
    return out
