"""Shared exception types.

Contract violations (bad arguments, broken invariants, undecidable
questions) and resource exhaustion (enumeration budgets, prime-layer caps)
are kept apart because callers react differently: the first is a caller
bug or an honest "cannot decide", the second is fixable by raising a cap.
"""


class ContractError(ValueError):
    """A precondition or structural invariant was violated."""


class UndecidableError(ContractError):
    """The question cannot be settled exactly from the given data.

    Raised instead of guessing, e.g. when two lazily represented
    supernatural numbers have unrelated tail schedules and the inspected
    prime range cannot distinguish them.
    """


class ResourceError(RuntimeError):
    """An enumeration or closure exceeded its configured budget."""
