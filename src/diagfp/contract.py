"""Shared test-solver contract: requests and outcomes.

A test solver answers one question: does the symbolically described
hypothesis set contain a diagnosis candidate?  Any object with a

    solve(request: TestRequest) -> TestOutcome

method (and a ``space`` attribute) can drive the strategies.  On success the
outcome carries a witnessed candidate; on failure it carries a conflict: the
tuple of a subset of the requested properties, in request order, whose
conjunction already rules every candidate out.  The least informative legal
conflict is the full request.

A solver may also declare ``minimal_answers = True``: every candidate it
returns is then minimal among the candidates its request admits.  The
strategies read the attribute with a false default; PLS+r, given such a
solver, skips the minimality tests that would refine each answer.

The request is where hypotheses meet a solver, and the one place their
alphabet is checked: building a :class:`TestRequest` validates every
property anchor against its space, with one :meth:`Space.validate` call
per request, and a solver refuses a request for any space but its own.  The
order operations underneath (``leq``, ``children``, ``otimes``,
``any_leq``, ``min_antichain``, ``member``) then only compare kinds.

:class:`TestRequest` and :class:`TestOutcome` are named tuples, as are the
hypotheses and properties they carry: equality, hash and construction run
in C, and their fields are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .hypothesis import Hypothesis, Space


class _RequestFields(NamedTuple):
    props: tuple
    space: Space


class TestRequest(_RequestFields):
    __test__ = False  # not a pytest class
    __slots__ = ()

    def __new__(cls, props, space: Space):
        # a tuple first, so an iterator is read once
        props = tuple(props)
        space.validate([p.anchor for p in props])
        return tuple.__new__(cls, (props, space))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: check what it builds too
        return cls(*iterable)


class TestOutcome(NamedTuple):
    """Either Candidate(hypothesis, witness) or Failed(conflict)."""

    __test__ = False  # not a pytest class

    candidate: Hypothesis | None = None
    witness: object = None
    conflict: tuple | None = None

    @classmethod
    def found(cls, candidate, witness):
        return tuple.__new__(cls, (candidate, witness, None))

    @classmethod
    def failed(cls, conflict):
        return tuple.__new__(cls, (None, None, conflict))

    @property
    def is_candidate(self) -> bool:
        return self.candidate is not None


@dataclass
class SolverStats:
    """A solver's frontend counts, in ``extra`` (the explicit search adds
    ``visited`` and ``expanded``)."""

    extra: dict = field(default_factory=dict)
