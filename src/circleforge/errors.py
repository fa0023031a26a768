"""Shared error types separating bad arguments from refused-by-budget requests,
and `check_count`, the one gate of every integer argument of a public entry."""

import operator
from numbers import Integral


class PreconditionError(ValueError):
    """An argument violates a documented precondition of the operation."""


class BudgetError(RuntimeError):
    """The request exceeds a memory or cost budget and was refused, not attempted."""


def check_count(value, what: str, least: int | None = 1, budget: int | None = None) -> int:
    """The integer argument `what` as a Python int, for the caller to rebind, so
    no numpy integer reaches the arithmetic below (an int64 2 * P**6 + 1 wraps).
    Refused with PreconditionError unless it is an Integral (numpy integers
    pass, 7.0 does not) of at least `least` (any integer if None), and with
    BudgetError if it passes `budget`."""
    if not isinstance(value, Integral):
        raise PreconditionError(f"{what}={value!r} must be an integer")
    value = operator.index(value)
    if least is not None and value < least:
        raise PreconditionError(f"{what} must be >= {least}")
    if budget is not None and value > budget:
        raise BudgetError(f"{what}={value} beyond budget {budget}")
    return value
