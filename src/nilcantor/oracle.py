"""Brute-force reference implementations for every closed form.

Nothing here shares logic with the fast paths beyond the element
arithmetic itself: relative cores (the normal core is the one over
GAMMA) are found by scanning conjugators, coset structure by walking
each grid point's coset through the box, and trivial-action kernels by
checking every group element against every coset of the cylinder (the
whole space at level 0).  The coset partition of a grid is the fibres of
its canonical table.  The closed forms are trusted only because they agree
with these scans on every input within budget; that equivalence is this
module's entire contract and runs in the regular test suite.

One number bounds every scan: `OracleBudget.max_group_order`.  A scan
counts the steps it will take before it starts and refuses with
ResourceError above the budget (the pair scans above PAIRS_FACTOR times
it); only the orbits, whose size is not known in advance, are refused as
they pass it.

This module is the one home of enumeration: the heisenberg and towers
modules hold closed forms only, and the generator closures and orbits
that check their subgroups and the action on cosets live here.  So does
the one group law on residues, that of a finite quotient Gamma/N by a
normal box (residue_law): the towers module names every subgroup of a
quotient by the box it pulls back to, and only the closures multiply
residues.
Invariants of the scans are explicit checks that raise ContractError, so
they hold under ``python -O`` too.  Every scan is plain Python over the
group law.
"""

from __future__ import annotations

from ._value import Value, set_field
from .errors import ContractError, ResourceError
from .heisenberg import BoxSubgroup, HeisenbergElement
from .towers import ChainSpec

__all__ = [
    "OracleBudget",
    "relative_core_by_enumeration",
    "fixing_scan",
    "residue_law",
    "subgroup_closure",
    "coset_orbit",
    "coset_partition",
    "canonical_by_enumeration",
    "canonical_table_by_enumeration",
]

# A scan that confronts pairs (conjugator and candidate, stabilizer and
# coset) may make up to this multiple of max_group_order tests.
PAIRS_FACTOR = 4


class OracleBudget(Value):
    __slots__ = ("max_group_order",)

    def __init__(self, max_group_order: int = 10**6):
        if max_group_order < 1:
            raise ContractError(f"max_group_order must be positive, got {max_group_order}")
        set_field(self, "max_group_order", max_group_order)


DEFAULT_BUDGET = OracleBudget()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ContractError(message)


def _refuse_above(demand: int, what: str, budget: OracleBudget, factor: int = 1) -> None:
    """Refuse a scan that will take `demand` steps, before it starts."""
    limit = budget.max_group_order * factor
    if demand > limit:
        scale = f" x {factor}" if factor != 1 else ""
        raise ResourceError(
            f"{what}: {demand} exceeds budget {limit} "
            f"(max_group_order {budget.max_group_order}{scale})"
        )


def relative_core_by_enumeration(
    outer: BoxSubgroup, inner: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET
) -> BoxSubgroup:
    """Intersect the conjugates g B g^-1 of B = `inner` over the conjugators
    g of `outer`; with GAMMA as `outer` this is the normal core.

    Conjugation by (x, y, z) shifts the central coordinate by x*b - y*a,
    which only depends on (x, y) mod Mc', so the conjugators are the outer
    box's (x, y) residues mod Mc': at most Mc'^2 of them, each tested
    against 2(Mc'+1) candidates.  The candidates are the elements (a, 0, 0)
    and (0, b, 0) of B over one period of the coarsest possible answer
    (a = Ma'*Mc') plus the endpoint, so a positive survivor always exists
    in the window, and the survivors must be exactly the lattices their
    minima generate.  The shift is linear in (a, b), so (a, b) survives
    when a and b do: the answer is the box those minima span.
    """
    if not outer.contains_box(inner):
        raise ContractError(f"{inner} is not contained in {outer}")
    ma, mb, mc = inner.Ma, inner.Mb, inner.Mc
    _refuse_above(
        mc * mc * 2 * (mc + 1),
        f"conjugation tests of the relative core scan of {inner} in {outer}",
        budget,
        PAIRS_FACTOR,
    )
    xs = {(k * outer.Ma) % mc for k in range(mc)}
    ys = {(k * outer.Mb) % mc for k in range(mc)}
    conjugators = [(x, y) for x in xs for y in ys]

    def survives(a: int, b: int) -> bool:
        return all((x * b - y * a) % mc == 0 for x, y in conjugators)

    surviving_a = [ma * k for k in range(0, mc + 1) if survives(ma * k, 0)]
    surviving_b = [mb * k for k in range(0, mc + 1) if survives(0, mb * k)]
    ra = min(a for a in surviving_a if a > 0)
    rb = min(b for b in surviving_b if b > 0)
    _check(
        surviving_a == [a for a in range(0, ma * mc + ma, ra) if a <= ma * mc],
        f"scan of {inner}: the surviving a-values are not the multiples of {ra}",
    )
    _check(
        surviving_b == [b for b in range(0, mb * mc + mb, rb) if b <= mb * mc],
        f"scan of {inner}: the surviving b-values are not the multiples of {rb}",
    )
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
    core = chain.core_at(depth)
    _refuse_above(core.index(), f"elements of Q_{depth}", budget)
    box = chain.box_at(depth)
    outer = chain.box_at(cylinder)

    # Phase 1: stabilizers of the identity coset, i.e. residues lifting
    # into the depth box.
    survivors = []
    for a in range(core.Ma):
        if a % box.Ma:
            continue
        for b in range(core.Mb):
            if b % box.Mb:
                continue
            for c in range(core.Mc):
                if c % box.Mc == 0:
                    survivors.append(HeisenbergElement(a, b, c))

    # Phase 2: representatives of the cosets inside the cylinder, the
    # whole space at cylinder 0 (box_at(0) is GAMMA).
    reps = [
        HeisenbergElement(a, b, c)
        for a in range(0, box.Ma, outer.Ma)
        for b in range(0, box.Mb, outer.Mb)
        for c in range(0, box.Mc, outer.Mc)
    ]
    _refuse_above(
        len(survivors) * len(reps), "stabilizer-coset pairs of the fixing scan", budget, PAIRS_FACTOR
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


def residue_law(normal: BoxSubgroup):
    """The group law of Gamma/normal on residue triples (a mod Ma, b mod Mb,
    c mod Mc): the functions (reduce, mul, inv), reduce taking triples or
    elements.  The Heisenberg law (a,b,c)(a',b',c') = (a+a', b+b',
    c+c'+a*b') is well defined on residues exactly when Mc | Ma and
    Mc | Mb, that is when the box is normal (changing a representative by
    Ma or Mb moves the central coordinate by a multiple of Mc); cores
    always qualify."""
    ma, mb, mc = normal.Ma, normal.Mb, normal.Mc
    if ma % mc or mb % mc:
        raise ContractError(f"{normal} is not normal: no group law on its residues")

    def reduce(g) -> tuple:
        if isinstance(g, HeisenbergElement):
            g = (g.a, g.b, g.c)
        return (g[0] % ma, g[1] % mb, g[2] % mc)

    def mul(x, y) -> tuple:
        return ((x[0] + y[0]) % ma, (x[1] + y[1]) % mb, (x[2] + y[2] + x[0] * y[1]) % mc)

    def inv(x) -> tuple:
        return ((-x[0]) % ma, (-x[1]) % mb, (-x[2] + x[0] * x[1]) % mc)

    return reduce, mul, inv


def subgroup_closure(
    normal: BoxSubgroup, generators, budget: OracleBudget = DEFAULT_BUDGET
) -> frozenset:
    """The subgroup of Gamma/normal generated by `generators` (triples or
    elements, reduced first), as residue triples: the orbit of the
    identity under left multiplication by the generators and their
    inverses."""
    reduce, mul, inv = residue_law(normal)
    gens = [reduce(g) for g in generators]
    return _orbit((0, 0, 0), mul, gens + [inv(g) for g in gens], budget, "subgroup closure")


def coset_orbit(box: BoxSubgroup, generators, budget: OracleBudget = DEFAULT_BUDGET) -> frozenset:
    """The orbit of the identity coset in Gamma/box under the group the
    elements `generators` generate."""
    moves = list(generators) + [g.inverse() for g in generators]
    return _orbit((0, 0, 0), box.act, moves, budget, "orbit")


def coset_partition(
    box: BoxSubgroup, budget: OracleBudget = DEFAULT_BUDGET, span: int = 2
) -> list[frozenset]:
    """Partition the grid [0, span*Ma) x [0, span*Mb) x [0, span*Mc) into
    left cosets of the box: the fibres of its canonical table."""
    fibres: dict = {}
    for g, r in canonical_table_by_enumeration(box, span, budget).items():
        fibres.setdefault(r, []).append(g)
    return [frozenset(members) for members in fibres.values()]


def canonical_by_enumeration(
    box: BoxSubgroup, g: HeisenbergElement, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple:
    """The unique grid point in the same left coset as g, found by scanning
    the whole grid and asserting uniqueness.  A point h is in g's coset
    exactly when g^-1*h is in the box, and by the group law g^-1*(a, b, c)
    = (a - ga, b - gb, c - gc + ga*gb - ga*b), so each point is tested on
    integers."""
    _refuse_above(box.index(), f"grid points of the canonical scan of {box}", budget)
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    ga, gb, gc = g.a, g.b, g.c
    matches = [
        (a, b, c)
        for a in range(ma)
        for b in range(mb)
        for c in range(mc)
        if (a - ga) % ma == 0 and (b - gb) % mb == 0 and (c - gc + ga * gb - ga * b) % mc == 0
    ]
    _check(len(matches) == 1, f"coset of {g} meets the grid in {len(matches)} points")
    return matches[0]


def canonical_table_by_enumeration(
    box: BoxSubgroup, span: int = 2, budget: OracleBudget = DEFAULT_BUDGET
) -> dict:
    """canonical_by_enumeration over the whole spanned grid
    [0, span*Ma) x [0, span*Mb) x [0, span*Mc): returns {grid element ->
    its unique mate}, a mate being a point r of the plain grid
    [0, Ma) x [0, Mb) x [0, Mc) in the same left coset.

    g is in the coset of r exactly when g = r*h for a box element
    h = (x, y, z), and r*h = (ra+x, rb+y, rc+z+ra*y).  Since ra < Ma and
    rb < Mb, r*h has its a- and b-parts on the spanned grid exactly for
    the multiples x of Ma in [0, span*Ma) and y of Mb in [0, span*Mb); for
    each such (x, y) its c-part lies in [0, span*Mc) exactly for the
    multiples z of Mc from -floor((rc + ra*y)/Mc)*Mc up to, not including,
    span*Mc - rc - ra*y.  Walking those h from every plain-grid r meets
    each (g, r) pair exactly once, span^3 * index steps in all, and the
    scan insists that each spanned-grid point is met exactly once.
    """
    ma, mb, mc = box.Ma, box.Mb, box.Mc
    wa, wb, wc = span * ma, span * mb, span * mc
    _refuse_above(wa * wb * wc, f"points of the coset table of {box} at span {span}", budget)
    steps = [(x, y) for x in range(0, wa, ma) for y in range(0, wb, mb)]
    table: dict = {}
    for r in ((a, b, c) for a in range(ma) for b in range(mb) for c in range(mc)):
        ra, rb, rc = r
        for x, y in steps:
            shift = rc + ra * y
            for z in range(-(shift // mc) * mc, wc - shift, mc):
                g = (ra + x, rb + y, shift + z)  # r*h by the group law
                _check(g not in table, f"{g} meets the representative grid twice")
                table[g] = r
    _check(len(table) == wa * wb * wc, "some coset misses the representative grid")
    return table
