"""Error and outcome types shared across the package.

Uncertainty is a value, not an exception: operations whose answer legitimately
depends on leaving the fixed scalar tower Q < Q(i) return `Indeterminate`
rather than raising, so callers can surface it as an Unknown verdict.
"""
from __future__ import annotations


class LieDefError(Exception):
    """Base class for all package errors."""


class InputError(LieDefError):
    """Malformed user input (bad file, bad shape, bad field value)."""


class NotSolvableError(LieDefError):
    """An operation that requires a solvable algebra received a non-solvable one."""


class NotNilpotentError(LieDefError):
    """An operation that requires a nilpotent algebra received a non-nilpotent one."""


class PreconditionError(LieDefError):
    """A stated precondition fails (non-ideal subspace, non-torus k, ...)."""


class NotSupersolvableError(PreconditionError):
    """A triangular construction was asked of a non-supersolvable algebra.

    Carries the counter-witness (a NonRealWitness) when one is available.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedError(LieDefError):
    """Honest refusal: the requested case is outside the implemented fragment."""


class InternalCheckError(LieDefError):
    """A verified postcondition failed: an algorithm bug, never a user error."""


class Indeterminate:
    """Explicit don't-know outcome carrying a human-readable reason.

    Returned (never raised) by operations whose exact answer would require a
    field extension beyond Q(i) or a search the package does not perform.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Indeterminate({self.reason!r})"

    def __bool__(self):
        # An Indeterminate never counts as a positive result.
        return False
