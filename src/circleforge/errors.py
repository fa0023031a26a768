"""Shared error types separating bad arguments from refused-by-budget requests."""


class PreconditionError(ValueError):
    """An argument violates a documented precondition of the operation."""


class BudgetError(RuntimeError):
    """The request exceeds a memory or cost budget and was refused, not attempted."""

