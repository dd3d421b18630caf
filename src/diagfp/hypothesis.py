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
is checked once, when a :class:`~diagfp.contract.TestRequest` is built, and
a solver decodes answers only over its own alphabet.

A :class:`Hypothesis` is a named tuple ``(kind, data)``: its equality and
hash are the tuple's, computed in C, and equal to what ``(kind, data)``
gives, so every set and dict of hypotheses iterates in the same order.  Its
fields are read-only; its ``count`` counts faults, not tuple elements.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
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


def order_key(h: Hypothesis):
    """Deterministic total tie-break: size first, then canonical encoding."""
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

    def validate(self, h: Hypothesis) -> Hypothesis:
        if h.kind != self.kind:
            raise SpaceMismatchError(
                f"hypothesis of kind {h.kind!r} used in {self.kind!r} space")
        if self.kind != BHS and not self.fault_set.issuperset(h.data):
            raise SpaceMismatchError(
                f"{h.canon()} mentions faults outside the alphabet")
        return h

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
    it = iter(b)
    return all(x in it for x in a)


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


def leq(a: Hypothesis, b: Hypothesis, space: Space) -> bool:
    """Preference order: True iff ``a`` is preferred-or-equal to ``b``."""
    if a.kind != space.kind or b.kind != space.kind:
        raise SpaceMismatchError(f"{a!r}, {b!r} in {space.kind!r} space")
    if space.kind == SHS:
        return a.data <= b.data
    if space.kind in (MHS, SQHS):
        return _is_subsequence(a.data, b.data)
    return (not a.data) or b.data


def lt(a: Hypothesis, b: Hypothesis, space: Space) -> bool:
    return a != b and leq(a, b, space)


def children(h: Hypothesis, space: Space) -> list:
    """Minimal strict descendants of ``h`` (a finite antichain)."""
    if h.kind != space.kind:
        raise SpaceMismatchError(f"{h!r} in {space.kind!r} space")
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
        if not any(leq(kept, h, space) for kept in out):
            out.append(h)
    return out
