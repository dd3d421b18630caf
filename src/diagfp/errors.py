"""Exception types shared across the package."""

from __future__ import annotations

from collections.abc import Mapping


class DiagError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(DiagError):
    """Hypotheses from different space variants were combined."""


class ModelFormatError(DiagError):
    """Model/observation/circuit text failed to parse or validate."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateBudgetExceeded(DiagError):
    """Explicit-state search exceeded its visited-state budget."""


class BudgetExhausted(DiagError):
    """A strategy hit its test cap (``iteration_cap``); carries the partial
    result (a ``DiagnosisResult``) and the run's read-only stats mapping."""

    def __init__(self, message, partial, stats: Mapping):
        self.partial = partial
        self.stats = stats
        super().__init__(message)


class EncodingError(DiagError):
    """Internal consistency check of the SAT path failed (encoding bug)."""


def check_count(name: str, value) -> None:
    """Reject a ``value`` for the count ``name`` that is not an int >= 1."""
    # bool is an int subclass: True would pass as 1
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DiagError(f"{name} must be an int >= 1, got {value!r}")
