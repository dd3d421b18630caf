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

A property set is a tuple of properties and denotes the intersection of its
members' hypothesis sets; :func:`member` tests a hypothesis against one in a
single pass, comparing payloads by the order of ``hypothesis.leq`` and
checking each anchor's kind, and :func:`exhibits` states what it computes
for one property.  No builder repeats a property, and a conflict is a
sub-tuple of its request.  The order is kept: the SAT backend numbers
assumption literals by it, which keeps unsat cores reproducible.

A :class:`Property` is a named tuple ``(kind, anchor)``: its equality and
hash are the tuple's, computed in C, so a lookup in a solver's
property-to-literal dict or in a strategy's set runs no Python code.
Building one checks its kind, except where :func:`question_candidate`
builds its children's ``neg_desc`` properties as bare tuples; its fields are
read-only.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DiagError, SpaceMismatchError
from .hypothesis import (PAYLOAD_LEQ, SHS, Hypothesis, Space, children, leq,
                         order_key)

DESC = "desc"
ANC = "anc"
NEG_DESC = "neg_desc"
NEG_ANC = "neg_anc"

_KINDS = (DESC, ANC, NEG_DESC, NEG_ANC)
# kinds stated over the anchor's descendants (the rest: its ancestors), and
# the positive kinds (the rest are their complements)
DESC_KINDS = frozenset((DESC, NEG_DESC))
POSITIVE_KINDS = frozenset((DESC, ANC))


class _PropertyFields(NamedTuple):
    kind: str
    anchor: Hypothesis


class Property(_PropertyFields):
    __slots__ = ()

    def __new__(cls, kind: str, anchor: Hypothesis):
        if kind not in _KINDS:
            raise DiagError(f"unknown property kind {kind!r}")
        return tuple.__new__(cls, (kind, anchor))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: check what it builds too
        return cls(*iterable)

    def __repr__(self):
        return f"{self.kind}({self.anchor.canon()})"


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
    """Conjunction of :func:`exhibits` over a property collection, in one
    pass: the payload order is chosen once, by ``space.kind``, and each
    property compares payloads by it.  ``h`` and each anchor read must be
    of ``space``."""
    kind = space.kind
    hk, hd = h
    if hk != kind:
        raise SpaceMismatchError(f"{h!r} in {kind!r} space")
    # neg_desc first: coverage questions and candidacy children are made of
    # it; shs frozensets compare inline
    if kind == SHS:
        for p in props:
            pk, (ak, ad) = p
            if ak != kind:
                raise _anchor_mismatch(p, h, kind)
            if pk == NEG_DESC:
                if ad <= hd:
                    return False
            elif pk == DESC:
                if not ad <= hd:
                    return False
            elif pk == ANC:
                if not hd <= ad:
                    return False
            elif hd <= ad:
                return False
        return True
    le = PAYLOAD_LEQ[kind]
    for p in props:
        pk, (ak, ad) = p
        if ak != kind:
            raise _anchor_mismatch(p, h, kind)
        if pk == NEG_DESC:
            if le(ad, hd):
                return False
        elif pk == DESC:
            if not le(ad, hd):
                return False
        elif pk == ANC:
            if not le(hd, ad):
                return False
        elif le(hd, ad):
            return False
    return True


def _anchor_mismatch(p: Property, h: Hypothesis,
                     kind: str) -> SpaceMismatchError:
    return SpaceMismatchError(f"{p.anchor!r}, {h!r} in {kind!r} space")


def question_candidate(h: Hypothesis, space: Space) -> tuple:
    """Property set whose hypothesis set is exactly ``{h}``.

    It is stated through the children of ``h`` rather than as {desc(h),
    anc(h)}: the children-based form produces more general conflicts for the
    conflict-directed strategies.  Each child's property is built as the
    tuple the checking constructor would return, since its kind is a
    constant.
    """
    return (Property(DESC, h),
            *(tuple.__new__(Property, (NEG_DESC, c))
              for c in children(h, space)))


def question_minimal(d: Hypothesis, space: Space) -> tuple:
    """Property set of the strict ancestors of candidate ``d``."""
    return (Property(ANC, d), Property(NEG_DESC, d))


def question_coverage(hyps, space: Space) -> tuple:
    """Property set of the hypotheses dominated by no element of ``hyps``:
    one ``neg_desc`` per distinct element, in :func:`order_key` order.  The
    reference builder: PLS and PFS-e keep the same tuple as they store
    hypotheses (``strategies._insert``), and tests check theirs against it."""
    return tuple(Property(NEG_DESC, h)
                 for h in sorted(set(hyps), key=order_key))
