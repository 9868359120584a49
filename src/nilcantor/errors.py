"""Shared exception types.

Contract violations (bad arguments, broken invariants) and resource
exhaustion (enumeration budgets, prime-layer caps) are kept apart because
callers react differently: the first is a caller bug, the second is
fixable by raising a cap.
"""


class ContractError(ValueError):
    """A precondition or structural invariant was violated."""


class ResourceError(RuntimeError):
    """An enumeration or closure exceeded its configured budget."""
