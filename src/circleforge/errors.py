"""Shared error types separating bad arguments from refused-by-budget requests."""

from numbers import Integral


class PreconditionError(ValueError):
    """An argument violates a documented precondition of the operation."""


class BudgetError(RuntimeError):
    """The request exceeds a memory or cost budget and was refused, not attempted."""


def check_count(value, what: str, least: int = 1, budget: int | None = None) -> None:
    """Refuse the integer argument `what` (a target, a bound or a modulus)
    unless it is an Integral (numpy integers pass, 7.0 does not) of at least
    `least`, with PreconditionError, or if it passes `budget`, with BudgetError."""
    if not isinstance(value, Integral):
        raise PreconditionError(f"{what}={value!r} must be an integer")
    if value < least:
        raise PreconditionError(f"{what} must be >= {least}")
    if budget is not None and value > budget:
        raise BudgetError(f"{what}={value} beyond budget {budget}")
