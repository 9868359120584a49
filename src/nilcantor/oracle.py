"""Brute-force reference implementations for every closed form.

Nothing here shares logic with the fast paths beyond the element
arithmetic itself: cores and relative cores are found by scanning
conjugators, coset structure by pairwise membership tests, and
trivial-action kernels by checking every group element against every
coset.  The closed forms are trusted only because they agree with these
scans on every input within budget; that equivalence is this module's
entire contract and runs in the regular test suite.

This module is the one home of enumeration: the towers module holds
closed forms only, and the generator closures and orbits that check its
subgroups and its action live here.  Invariants of the scans are
explicit checks that raise ContractError, so they hold under
``python -O`` too.  Every scan is plain Python over the group law.
"""

from __future__ import annotations

from ._value import Value, set_field
from .errors import ContractError, ResourceError
from .heisenberg import BoxSubgroup, HeisenbergElement
from .towers import ChainSpec, CosetSpace, FiniteQuotient

__all__ = [
    "OracleBudget",
    "core_by_enumeration",
    "relative_core_by_enumeration",
    "fixing_scan",
    "subgroup_closure",
    "coset_orbit",
    "coset_partition",
    "canonical_by_enumeration",
    "canonical_table_by_enumeration",
]

# relative_core_by_enumeration only scans the outer box's conjugator
# residues, so it takes inner moduli up to this multiple of max_modulus.
RELATIVE_CORE_MODULUS_FACTOR = 6
# fixing_scan confronts each identity-coset stabilizer with each coset
# representative: up to this multiple of max_group_order pairs.
FIXING_PAIRS_FACTOR = 4


class OracleBudget(Value):
    __slots__ = ("max_modulus", "max_group_order")

    def __init__(self, max_modulus: int = 12, max_group_order: int = 10**6):
        if min(max_modulus, max_group_order) < 1:
            raise ContractError("budget fields must be positive")
        set_field(self, "max_modulus", max_modulus)
        set_field(self, "max_group_order", max_group_order)


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
    is exhaustive in effect.
    """
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    if max(ma, mb, mc) > budget.max_modulus:
        raise ResourceError(
            f"largest modulus {max(ma, mb, mc)} of {box} exceeds budget {budget.max_modulus}"
        )
    survives, surviving_a, surviving_b, found = _conjugation_scan(box, range(mc), range(mc))
    # The two coordinates must be independent (product structure).
    for a in surviving_a:
        for b in surviving_b:
            _check(survives(a, b), f"scan of {box}: ({a}, {b}) breaks the product structure")
    return found


def _conjugation_scan(box: BoxSubgroup, xs, ys):
    """Scan the elements (a, 0, 0) and (0, b, 0) of the box whose conjugates
    by every (x, y) in xs x ys stay in the box, per coordinate over one
    period of the coarsest possible answer (a = Ma*Mc) plus the endpoint,
    so a positive survivor always exists in the window.  The survivors
    must be exactly the lattices their minima generate; returns the test,
    the survivors and the box those minima span."""
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    conjugators = [(x, y) for x in xs for y in ys]

    def survives(a: int, b: int) -> bool:
        return all((x * b - y * a) % mc == 0 for x, y in conjugators)

    surviving_a = [ma * k for k in range(0, mc + 1) if survives(ma * k, 0)]
    surviving_b = [mb * k for k in range(0, mc + 1) if survives(0, mb * k)]
    ra = min(a for a in surviving_a if a > 0)
    rb = min(b for b in surviving_b if b > 0)
    _check(
        surviving_a == [a for a in range(0, ma * mc + ma, ra) if a <= ma * mc],
        f"scan of {box}: the surviving a-values are not the multiples of {ra}",
    )
    _check(
        surviving_b == [b for b in range(0, mb * mc + mb, rb) if b <= mb * mc],
        f"scan of {box}: the surviving b-values are not the multiples of {rb}",
    )
    return survives, surviving_a, surviving_b, BoxSubgroup(ra, rb, mc)


def relative_core_by_enumeration(
    outer: BoxSubgroup, inner: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET
) -> BoxSubgroup:
    """Same scan as core_by_enumeration, with conjugators restricted to
    representatives of the outer box."""
    if not outer.contains_box(inner):
        raise ContractError(f"{inner} is not contained in {outer}")
    ma, mb, mc = inner.Ma, inner.Mb, inner.Mc
    limit = budget.max_modulus * RELATIVE_CORE_MODULUS_FACTOR
    if max(ma, mb, mc) > limit:
        raise ResourceError(
            f"largest modulus {max(ma, mb, mc)} of {inner} exceeds budget {limit} "
            f"(max_modulus {budget.max_modulus} x {RELATIVE_CORE_MODULUS_FACTOR})"
        )
    # The outer box's (x, y) values, reduced mod Mc': the shift x*b - y*a
    # only depends on these residues.
    xs = sorted({(k * outer.Ma) % mc for k in range(mc)})
    ys = sorted({(k * outer.Mb) % mc for k in range(mc)})
    return _conjugation_scan(inner, xs, ys)[3]


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
        raise ResourceError(f"|Q_{depth}| = {q.order} exceeds budget {budget.max_group_order}")
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
    pairs, limit = len(survivors) * len(reps), budget.max_group_order * FIXING_PAIRS_FACTOR
    if pairs > limit:
        raise ResourceError(
            f"fixing scan needs {pairs} stabilizer-coset pairs; exceeds budget {limit} "
            f"(max_group_order {budget.max_group_order} x {FIXING_PAIRS_FACTOR})"
        )

    fixed = []
    for g in survivors:
        if all(box.contains(g.conjugate_by(h.inverse())) for h in reps):
            fixed.append((g.a, g.b, g.c))
    return frozenset(fixed)


def _orbit(start, act, moves, budget: OracleBudget, what: str) -> frozenset:
    """Breadth-first orbit of `start` under act(move, point); refused once
    it grows past budget.max_group_order points."""
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in moves:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > budget.max_group_order:
                        raise ResourceError(
                            f"{what} passed {budget.max_group_order} elements, "
                            "the budget (max_group_order)"
                        )
        frontier = nxt
    return frozenset(seen)


def subgroup_closure(
    quotient: FiniteQuotient, generators, budget: OracleBudget = DEFAULT_BUDGET
) -> frozenset:
    """The subgroup of the quotient generated by `generators` (triples or
    elements, reduced first): the orbit of the identity under left
    multiplication by the generators and their inverses."""
    gens = [quotient.reduce(g) for g in generators]
    moves = gens + [quotient.inv(g) for g in gens]
    return _orbit(quotient.identity, quotient.mul, moves, budget, "subgroup closure")


def coset_orbit(
    space: CosetSpace, generators, start=None, budget: OracleBudget = DEFAULT_BUDGET
) -> frozenset:
    """The orbit of `start` (default: the basepoint) under the group the
    elements `generators` generate."""
    moves = list(generators) + [g.inverse() for g in generators]
    start = space.basepoint if start is None else start
    return _orbit(start, space.act, moves, budget, "orbit")


def coset_partition(
    box: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET, span: int = 2
) -> list[frozenset]:
    """Partition the grid [0, span*Ma) x [0, span*Mb) x [0, span*Mc) into
    left cosets of the box by pairwise membership tests."""
    if box.index() > budget.max_group_order:
        raise ResourceError(f"index {box.index()} of {box} exceeds budget {budget.max_group_order}")
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
        raise ResourceError(f"index {box.index()} of {box} exceeds budget {budget.max_group_order}")
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
    """canonical_by_enumeration over the whole spanned grid
    [0, span*Ma) x [0, span*Mb) x [0, span*Mc): returns {grid element ->
    its unique mate}, a mate being a point r of the plain grid
    [0, Ma) x [0, Mb) x [0, Mc) in the same left coset.

    g is in the coset of r exactly when g = r*h for some box element h,
    namely h = r^-1 g = (ga-ra, gb-rb, gc-rc-ra*(gb-rb)).  On the two
    grids its a-part is a multiple of Ma in (-Ma, span*Ma), so in
    [0, span*Ma); likewise its b-part lies in [0, span*Mb); and its c-part
    lies in [-(Mc-1) - (Ma-1)*(span-1)*Mb, span*Mc).  So walking r*h over
    every plain-grid r and every box element h in that window meets each
    (g, r) pair exactly once, and the scan insists that each spanned-grid
    point is met exactly once.
    """
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    wa, wb, wc = span * ma, span * mb, span * mc
    low_c = -((mc - 1 + (ma - 1) * (wb - mb)) // mc) * mc
    window = [
        (x, y, z)
        for x in range(0, wa, ma)
        for y in range(0, wb, mb)
        for z in range(low_c, wc, mc)
    ]
    table: dict = {}
    for r in ((a, b, c) for a in range(ma) for b in range(mb) for c in range(mc)):
        ra, rb, rc = r
        for x, y, z in window:
            g = (ra + x, rb + y, rc + z + ra * y)  # r*h by the group law
            if g[0] < wa and g[1] < wb and 0 <= g[2] < wc:
                _check(g not in table, f"{g} meets the representative grid twice")
                table[g] = r
    _check(len(table) == wa * wb * wc, "some coset misses the representative grid")
    return table
