"""Helpers shared by the test modules."""

from nilcantor.steinitz import SteinitzNumber


def steinitz_int(n: int) -> SteinitzNumber:
    """The positive integer n as a Steinitz number, factored by sympy (a
    test-only oracle, imported on first use)."""
    import sympy

    return SteinitzNumber(tuple(sorted(sympy.factorint(n).items())))
