"""Brute-force reference implementations for every closed form.

Nothing here shares logic with the fast paths beyond the element
arithmetic itself: cores and relative cores are found by scanning
conjugators, coset structure by pairwise membership tests, and
trivial-action kernels by checking every group element against every
coset.  The closed forms are trusted only because they agree with these
scans on every input within budget; that equivalence is this module's
entire contract and runs in the regular test suite.

Invariants of the scans are explicit checks that raise ContractError, so
they hold under ``python -O`` too.  numpy vectorizes one grid scan,
``canonical_table_by_enumeration``, which only the tests call; it is
imported inside that function, so the package runs without numpy.
"""

from __future__ import annotations

import random

from ._value import Value, set_field
from .errors import ContractError, ResourceError
from .heisenberg import BoxSubgroup, HeisenbergElement
from .towers import ChainSpec

__all__ = [
    "OracleBudget",
    "core_by_enumeration",
    "relative_core_by_enumeration",
    "fixing_scan",
    "coset_partition",
    "canonical_by_enumeration",
    "canonical_table_by_enumeration",
]


class OracleBudget(Value):
    __slots__ = ("max_modulus", "max_group_order", "seed")

    def __init__(self, max_modulus: int = 12, max_group_order: int = 10**6, seed: int = 0):
        if min(max_modulus, max_group_order) < 1:
            raise ContractError("budget fields must be positive")
        set_field(self, "max_modulus", max_modulus)
        set_field(self, "max_group_order", max_group_order)
        set_field(self, "seed", seed)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


DEFAULT_BUDGET = OracleBudget()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ContractError(message)


def _same_left_coset(g: HeisenbergElement, h: HeisenbergElement, box: BoxSubgroup) -> bool:
    return box.contains(g.inverse() * h)


def core_by_enumeration(box: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET) -> BoxSubgroup:
    """Intersect the conjugates g B g^-1 over conjugator representatives.

    Conjugation by (x, y, z) shifts the central coordinate by x*b - y*a,
    which only depends on (x, y) mod Mc, so scanning (x, y) in [0, Mc)^2
    is exhaustive in effect.  Elements are scanned per coordinate over one
    period of the candidate lattice.
    """
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    if max(ma, mb, mc) > budget.max_modulus:
        raise ResourceError(f"moduli of {box} exceed budget {budget.max_modulus}")
    conjugators = [(x, y) for x in range(mc) for y in range(mc)]

    def survives(a: int, b: int) -> bool:
        return all((x * b - y * a) % mc == 0 for x, y in conjugators)

    # One full period of the coarsest possible answer (a = ma*mc) plus the
    # endpoint, so a positive survivor always exists in the window.
    surviving_a = [ma * k for k in range(0, mc + 1) if survives(ma * k, 0)]
    surviving_b = [mb * k for k in range(0, mc + 1) if survives(0, mb * k)]
    ra = min(a for a in surviving_a if a > 0)
    rb = min(b for b in surviving_b if b > 0)
    # The survivors must be exactly the lattices the minima generate, and
    # the two coordinates must be independent (product structure).
    _check_lattices(surviving_a, surviving_b, ra, rb, box)
    for a in surviving_a:
        for b in surviving_b:
            _check(survives(a, b), f"scan of {box}: ({a}, {b}) breaks the product structure")
    return BoxSubgroup(ra, rb, mc)


def _check_lattices(surviving_a, surviving_b, ra, rb, box: BoxSubgroup) -> None:
    """The survivors must be exactly the lattices their minima generate."""
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    _check(
        surviving_a == [a for a in range(0, ma * mc + ma, ra) if a <= ma * mc],
        f"scan of {box}: the surviving a-values are not the multiples of {ra}",
    )
    _check(
        surviving_b == [b for b in range(0, mb * mc + mb, rb) if b <= mb * mc],
        f"scan of {box}: the surviving b-values are not the multiples of {rb}",
    )


def relative_core_by_enumeration(
    outer: BoxSubgroup, inner: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET
) -> BoxSubgroup:
    """Same scan as core_by_enumeration, with conjugators restricted to
    representatives of the outer box."""
    if not outer.contains_box(inner):
        raise ContractError(f"{inner} is not contained in {outer}")
    ma, mb, mc = inner.Ma, inner.Mb, inner.Mc
    if max(ma, mb, mc) > budget.max_modulus * 6:
        raise ResourceError(f"moduli of {inner} exceed budget {budget.max_modulus * 6}")
    # The outer box's (x, y) values, reduced mod Mc': the shift x*b - y*a
    # only depends on these residues.
    xs = sorted({(k * outer.Ma) % mc for k in range(mc)})
    ys = sorted({(k * outer.Mb) % mc for k in range(mc)})
    conjugators = [(x, y) for x in xs for y in ys]

    def survives(a: int, b: int) -> bool:
        return all((x * b - y * a) % mc == 0 for x, y in conjugators)

    surviving_a = [ma * k for k in range(0, mc + 1) if survives(ma * k, 0)]
    surviving_b = [mb * k for k in range(0, mc + 1) if survives(0, mb * k)]
    ra = min(a for a in surviving_a if a > 0)
    rb = min(b for b in surviving_b if b > 0)
    _check_lattices(surviving_a, surviving_b, ra, rb, inner)
    return BoxSubgroup(ra, rb, mc)


def fixing_scan(
    chain: ChainSpec, cylinder: int, depth: int, budget: OracleBudget = DEFAULT_BUDGET
) -> frozenset:
    """All elements of Q_depth fixing every depth-`depth` coset inside the
    level-`cylinder` cylinder, by direct check.

    An element fixing every such coset in particular fixes the identity
    coset, so the scan first keeps the identity-coset stabilizers (a plain
    membership test) and only then confronts the survivors with the full
    coset list.  Conjugating the candidate by the coset representative is
    exactly the "does g fix h*Gamma_depth" test.
    """
    q = chain.quotient_at(depth)
    if q.order > budget.max_group_order:
        raise ResourceError(f"|Q_{depth}| = {q.order} exceeds budget")
    box = chain.box_at(depth)
    outer = chain.box_at(cylinder) if cylinder >= 1 else None

    # Phase 1: stabilizers of the identity coset, i.e. residues lifting
    # into the depth box.
    survivors = []
    for a in range(q.A):
        if a % box.Ma:
            continue
        for b in range(q.B):
            if b % box.Mb:
                continue
            for c in range(q.C):
                if c % box.Mc == 0:
                    survivors.append(HeisenbergElement(a, b, c))

    # Phase 2: representatives of the cosets inside the cylinder.
    if outer is None:
        reps_a = range(0, box.Ma)
        reps_b = range(0, box.Mb)
        reps_c = range(0, box.Mc)
    else:
        reps_a = range(0, box.Ma, outer.Ma)
        reps_b = range(0, box.Mb, outer.Mb)
        reps_c = range(0, box.Mc, outer.Mc)
    reps = [
        HeisenbergElement(a, b, c) for a in reps_a for b in reps_b for c in reps_c
    ]
    if len(survivors) * len(reps) > budget.max_group_order * 4:
        raise ResourceError("fixing scan exceeds budget")

    fixed = []
    for g in survivors:
        if all(box.contains(g.conjugate_by(h.inverse())) for h in reps):
            fixed.append((g.a, g.b, g.c))
    return frozenset(fixed)


def coset_partition(
    box: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET, span: int = 2
) -> list[frozenset]:
    """Partition the grid [0, span*Ma) x [0, span*Mb) x [0, span*Mc) into
    left cosets of the box by pairwise membership tests."""
    if box.index() > budget.max_group_order:
        raise ResourceError(f"index of {box} exceeds budget")
    grid = [
        HeisenbergElement(a, b, c)
        for a in range(span * box.Ma)
        for b in range(span * box.Mb)
        for c in range(span * box.Mc)
    ]
    classes: list[tuple[HeisenbergElement, set]] = []
    for g in grid:
        for rep, members in classes:
            if _same_left_coset(rep, g, box):
                members.add((g.a, g.b, g.c))
                break
        else:
            classes.append((g, {(g.a, g.b, g.c)}))
    return [frozenset(members) for _rep, members in classes]


def canonical_by_enumeration(
    box: BoxSubgroup, g: HeisenbergElement, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple:
    """The unique grid point in the same left coset as g, found by scanning
    the whole grid and asserting uniqueness."""
    if box.index() > budget.max_group_order:
        raise ResourceError(f"index of {box} exceeds budget")
    matches = [
        (a, b, c)
        for a in range(box.Ma)
        for b in range(box.Mb)
        for c in range(box.Mc)
        if _same_left_coset(g, HeisenbergElement(a, b, c), box)
    ]
    _check(len(matches) == 1, f"coset of {g} meets the grid in {len(matches)} points")
    return matches[0]


def canonical_table_by_enumeration(box: BoxSubgroup, span: int = 2) -> dict:
    """Vectorized variant of canonical_by_enumeration over the whole
    spanned grid: returns {grid element -> its unique grid-coset mate}.

    Used by the equivalence suite, where per-element Python scans would
    dominate the budget.  Same semantics: for every g in the spanned grid,
    find all plain-grid r with g^-1 r in the box and insist there is
    exactly one.
    """
    import numpy as np

    ma, mb, mc = box.Ma, box.Mb, box.Mc
    ga, gb, gc = np.meshgrid(
        np.arange(span * ma), np.arange(span * mb), np.arange(span * mc), indexing="ij"
    )
    g = np.stack([ga.ravel(), gb.ravel(), gc.ravel()], axis=1).astype(np.int64)
    ra, rb, rc = np.meshgrid(
        np.arange(ma), np.arange(mb), np.arange(mc), indexing="ij"
    )
    r = np.stack([ra.ravel(), rb.ravel(), rc.ravel()], axis=1).astype(np.int64)

    # u = g^-1 * r with g^-1 = (-a, -b, -c + a*b)
    ua = r[None, :, 0] - g[:, None, 0]
    ub = r[None, :, 1] - g[:, None, 1]
    uc = (
        r[None, :, 2]
        - g[:, None, 2]
        + g[:, None, 0] * g[:, None, 1]
        - g[:, None, 0] * r[None, :, 1]
    )
    member = (ua % ma == 0) & (ub % mb == 0) & (uc % mc == 0)
    counts = member.sum(axis=1)
    _check(bool((counts == 1).all()), "some coset meets the representative grid oddly")
    idx = member.argmax(axis=1)
    return {
        (int(x[0]), int(x[1]), int(x[2])): (int(y[0]), int(y[1]), int(y[2]))
        for x, y in zip(g, r[idx])
    }
