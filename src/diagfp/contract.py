"""Shared test-solver contract: requests and outcomes.

A test solver answers one question: does the symbolically described
hypothesis set contain a diagnosis candidate?  Any object with a

    solve(request: TestRequest) -> TestOutcome

method (and a ``space`` attribute) can drive the strategies.  On success the
outcome carries a witnessed candidate; on failure it carries a conflict: the
tuple of a subset of the requested properties, in request order, whose
conjunction already rules every candidate out.  The least informative legal
conflict is the full request.

The request is where hypotheses meet a solver, and the one place their
alphabet is checked: building a :class:`TestRequest` validates every
property anchor against its space, and a solver refuses a request for any
space but its own.  The order operations underneath (``leq``, ``children``,
``otimes``, ``exhibits``) then only compare kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hypothesis import Hypothesis, Space


@dataclass(frozen=True)
class TestRequest:
    __test__ = False  # not a pytest class

    props: tuple
    space: Space

    def __post_init__(self):
        # stored before validation reads it, so an iterator is read once
        object.__setattr__(self, "props", tuple(self.props))
        for p in self.props:
            self.space.validate(p.anchor)


@dataclass(frozen=True)
class TestOutcome:
    """Either Candidate(hypothesis, witness) or Failed(conflict)."""

    __test__ = False  # not a pytest class

    candidate: Hypothesis | None = None
    witness: object = None
    conflict: tuple | None = None

    @classmethod
    def found(cls, candidate, witness):
        return cls(candidate=candidate, witness=witness)

    @classmethod
    def failed(cls, conflict):
        return cls(conflict=conflict)

    @property
    def is_candidate(self) -> bool:
        return self.candidate is not None


@dataclass
class SolverStats:
    """A solver's frontend counts, in ``extra`` (the explicit search adds
    ``visited`` and ``expanded``)."""

    extra: dict = field(default_factory=dict)
