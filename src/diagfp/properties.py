"""Symbolic hypothesis sets as property conjunctions, and the builders for
the three diagnostic questions (candidacy, minimality, coverage).

A property is one of four statements anchored at a hypothesis ``g``:

* ``desc(g)``     -- holds for descendants of g (g preferred-or-equal),
* ``anc(g)``      -- holds for ancestors of g,
* ``neg_desc(g)`` / ``neg_anc(g)`` -- their complements.

The neg_ kinds are complements, so a backend states only desc and anc of the
anchor (``DESC_KINDS``); ``satbackend.guard_property`` adds the negation
for the SAT frontends, and the explicit search compares the same test with
``kind in POSITIVE_KINDS``.

A :class:`PropertySet` denotes the intersection of its members' hypothesis
sets.  Insertion order is preserved: the SAT backend numbers assumption
literals by it, which keeps unsat cores reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DiagError
from .hypothesis import Hypothesis, Space, children, leq, order_key

DESC = "desc"
ANC = "anc"
NEG_DESC = "neg_desc"
NEG_ANC = "neg_anc"

_KINDS = (DESC, ANC, NEG_DESC, NEG_ANC)
# kinds stated over the anchor's descendants (the rest: its ancestors), and
# the positive kinds (the rest are their complements)
DESC_KINDS = frozenset((DESC, NEG_DESC))
POSITIVE_KINDS = frozenset((DESC, ANC))


@dataclass(frozen=True)
class Property:
    kind: str
    anchor: Hypothesis

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DiagError(f"unknown property kind {self.kind!r}")

    def __repr__(self):
        return f"{self.kind}({self.anchor.canon()})"


class PropertySet:
    """Duplicate-free, insertion-ordered conjunction of properties."""

    def __init__(self, props=()):
        self._props = []
        seen = set()
        for p in props:
            if p not in seen:
                seen.add(p)
                self._props.append(p)

    def __iter__(self):
        return iter(self._props)

    def __len__(self):
        return len(self._props)

    def __eq__(self, other):
        return isinstance(other, PropertySet) and set(self._props) == set(other._props)

    def __hash__(self):
        return hash(frozenset(self._props))

    def __repr__(self):
        return "{" + ", ".join(map(repr, self._props)) + "}"


def exhibits(h: Hypothesis, p: Property, space: Space) -> bool:
    """Does ``h`` exhibit property ``p``?"""
    if p.kind == DESC:
        return leq(p.anchor, h, space)
    if p.kind == ANC:
        return leq(h, p.anchor, space)
    if p.kind == NEG_DESC:
        return not leq(p.anchor, h, space)
    return not leq(h, p.anchor, space)


def member(h: Hypothesis, props, space: Space) -> bool:
    """Conjunction of :func:`exhibits` over a property collection."""
    return all(exhibits(h, p, space) for p in props)


def question_candidate(h: Hypothesis, space: Space) -> PropertySet:
    """Property set whose hypothesis set is exactly ``{h}``.

    It is stated through the children of ``h`` rather than as {desc(h),
    anc(h)}: the children-based form produces more general conflicts for the
    conflict-directed strategies.
    """
    props = [Property(DESC, h)]
    props.extend(Property(NEG_DESC, c) for c in children(h, space))
    return PropertySet(props)


def question_minimal(d: Hypothesis, space: Space) -> PropertySet:
    """Property set of the strict ancestors of candidate ``d``."""
    return PropertySet([Property(ANC, d), Property(NEG_DESC, d)])


def question_coverage(hyps, space: Space) -> PropertySet:
    """Property set of the hypotheses dominated by no element of ``hyps``."""
    anchors = sorted(set(hyps), key=order_key)
    return PropertySet([Property(NEG_DESC, h) for h in anchors])
