"""Helpers shared by the test modules: second routes to quantities the
library computes one way only."""

from nilcantor.dynamics import trivial_action_kernel
from nilcantor.steinitz import SteinitzNumber
from nilcantor.towers import PrimeSchedule


def steinitz_int(n: int) -> SteinitzNumber:
    """The positive integer n as a Steinitz number, factored by sympy (a
    test-only oracle, imported on first use)."""
    import sympy

    return SteinitzNumber(tuple(sorted(sympy.factorint(n).items())))


def schedule(chain, p: int) -> PrimeSchedule:
    """Prime p's exponent schedules, found from p alone: its explicit
    entry, the family's constant exponents from p's activation level on
    (its index in the enumeration, by a prime count), or zero.  The
    per-prime answer that `ChainSpec.schedules(level)` is checked
    against."""
    for s in chain.explicit:
        if s.prime == p:
            return s
    f = chain.family
    i = None if f is None else f.primes.index_of(p)
    if i is not None:
        return f.schedule_at(i + 1)
    return PrimeSchedule(p)


def escape_depth(chain, cylinder: int, g, max_depth: int):
    """First depth by `max_depth` at which g stops fixing the cylinder
    pointwise, element by element, or None if it survives every depth from
    the cylinder on: the check on the freeness certificate's
    `escape_depth`."""
    for d in range(max(cylinder, 1), max_depth + 1):
        if not trivial_action_kernel(chain, cylinder, d).contains(g):
            return d
    return None
