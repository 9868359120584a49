"""Properties from the paper on generated chains, each against an
independent route.

Chains come from the benchmark's generator (`perfbench/gen_chains.py`
`draw_chain`) fed by a Hypothesis-controlled random stream: one or two
explicit primes from {2, 3, 5}, each coordinate with a random start, base
and slope, and an indexed family over the remaining primes 30 % of the
time.  Draws that `ChainSpec` rejects are discarded.  Corollary 1.6's
chains, a family over one branch of the binary tree, have a strategy of
their own, and so do the explicit rows that validation accepts or
rejects.
"""

import re
import sys
from math import gcd, lcm, prod
from pathlib import Path

from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from nilcantor import oracle
from nilcantor.dynamics import (
    _evaluate_pair,
    _family_activation_gap,
    _kernel_eventual,
    _stable_level,
    discriminant_limit_report,
    freeness_certificate,
    lqa_witness,
    trivial_action_kernel,
    wildness_certificate,
)
from nilcantor.errors import ContractError
from nilcantor.heisenberg import BoxSubgroup, HeisenbergElement, index_in
from nilcantor.primes import isprime
from nilcantor.steinitz import Primes, TreeBranchPrimes, asymptotically_equivalent, type_leq
from nilcantor.towers import (
    ChainSpec,
    CoordSchedule,
    IndexedFamily,
    PrimeSchedule,
    stable_chain,
    wild_chain,
)

from helpers import schedule

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from gen_chains import MAX_QUOTIENT as SCAN_QUOTIENT, MAX_SCAN_CELLS, draw_chain  # noqa: E402

WINDOW = (3, 5)  # wildness certificate: max cylinder, max depth
WIDE_WINDOW = (4, 9)
VERDICT_WINDOWS = ((2, 2), (2, 3), WINDOW, WIDE_WINDOW)
SCAN_DEPTH = 3
MAX_QUOTIENT = 5000  # |Q_d| a fixing scan may enumerate
ORDER_DEPTH = 4  # raw Steinitz orders are checked at depths 1..ORDER_DEPTH
LAW_CYLINDERS = range(0, 4)
LAW_DEPTHS = (40, 41)  # past every start and line crossing the generator can draw
LAW_FAMILY_PRIMES = 3  # the family primes activated at levels 1..3
WALK_LEVELS = 8  # a level walk's schedules are checked at levels 1..WALK_LEVELS
KERNEL_LAW_LEVEL = 8  # the kernel law's rows, and its cylinders 0..KERNEL_LAW_LEVEL
MONOTONE_DEPTH = 8  # kernel moduli divide the next depth's at depths 1..MONOTONE_DEPTH
SYLOW_CYLINDERS = 4  # gaps (l1, l2) with l1 < l2 <= SYLOW_CYLINDERS ...
SYLOW_DEPTH = 8  # ... at every depth l2..SYLOW_DEPTH
BRANCH_WIDTH = 3  # branch labels have 1..BRANCH_WIDTH bits
BRANCH_PRIMES = BRANCH_WIDTH + 1  # a tail's first primes, past where two branches part
LIMIT_LOOKAHEAD = 20  # kernels this far past the quotient's depth stand for the limit
FREENESS_CYLINDERS = (1, 2)
FREENESS_RADIUS = 2  # small, so that drawn chains are FreeCertified and NotFree both
FREENESS_DEPTH = 4  # certificates walk to here; scans run within the benchmark's budgets
NOT_FREE_CYLINDERS = (0, 1, 2)
NOT_FREE_DEPTH = 6  # NotFree certificates at every max_depth up to here
SETTLE_CYLINDERS = range(0, 4)
DISCRIMINANT_LEVELS = (1, 2)  # reports at these levels, to depth level or level + 1 ...
LIMIT_DEPTHS = 3  # ... and a stabilized one's limit order at this many further depths

# Prime 5's c-schedule starts at depth 3, so from there on its growing
# parts change the kernels of every pair; those parts die in the limit
# and must not move the verdict.
LATE_GROWTH = ChainSpec(
    "late-growth",
    (
        PrimeSchedule(
            5, a=CoordSchedule(1, 1, 1), b=CoordSchedule(1, 2, 2), c=CoordSchedule(3, 2, 1)
        ),
    ),
    IndexedFamily(Primes(exclude=(5,)), 2, 0, 1),
    trivial_intersection=False,
)

# Prime 2's c-lattice is pinned at 4 from level 1, and prime 3 starts at
# level 8, so a NotFree witness is read off the depth-9 kernel whenever
# the window ends before it.
LATE_PINCHED = ChainSpec(
    "late-pinched",
    (
        PrimeSchedule(
            2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 2, 0)
        ),
        PrimeSchedule(3, a=CoordSchedule(8, 0, 1), b=CoordSchedule(8, 0, 1)),
    ),
    trivial_intersection=False,
)


# Prime 3 enters at level 3 and lowers its a-kernel base there, so the
# stable level is 3, found on the bisection's last step.
LATE_DROP = ChainSpec(
    "late-drop",
    (
        PrimeSchedule(2, *[CoordSchedule(1, 0, 1)] * 3),
        PrimeSchedule(
            3, a=CoordSchedule(3, 1, 0), b=CoordSchedule(3, 2, 0), c=CoordSchedule(3, 2, 0)
        ),
    ),
)

# Prime 2's c-schedule starts at level 1000, but its a-kernel base
# max(1, 5 - level) reaches its floor at level 4.
LATE_FLOOR = ChainSpec(
    "late-floor",
    (
        PrimeSchedule(
            2, a=CoordSchedule(1, 1, 0), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1000, 5, 0)
        ),
    ),
    trivial_intersection=False,
)


@st.composite
def chains(draw, family=st.none()):
    """A `draw_chain` chain; when `family` draws a bool, only chains that
    have (True) or lack (False) an indexed family are kept."""
    try:
        chain = draw_chain(draw(st.randoms(use_true_random=False)))
    except ContractError:
        reject()
    wanted = draw(family)
    if wanted is not None and wanted != (chain.family is not None):
        reject()
    return chain


def _last_start(chain) -> int:
    """The level from which every explicit schedule is affine (at least 1):
    past it each exponent is base + slope*level."""
    return max([1] + [f.start for s in chain.explicit for f in (s.a, s.b, s.c)])


PROPERTY_SETTINGS = settings(
    derandomize=True,
    max_examples=25,
    deadline=1000,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@PROPERTY_SETTINGS
@given(chains(family=st.just(False)))
def test_finite_spectrum_is_never_wild(chain):
    # Theorem 1.3: without a family the prime spectrum is finite, so the
    # chain is stable: the certificate must say so, never WildEvidence.
    assert wildness_certificate(chain, *WINDOW).verdict == "StableCertified"


@PROPERTY_SETTINGS
@given(chains())
def test_kernel_closed_form_equals_fixing_scan(chain):
    budget = oracle.OracleBudget(max_group_order=MAX_QUOTIENT)
    for depth in range(1, SCAN_DEPTH + 1):
        core = chain.core_at(depth)
        if core.index() > MAX_QUOTIENT:
            continue
        for cylinder in range(0, depth + 1):
            scanned = oracle.fixing_scan(chain, cylinder, depth, budget)
            kernel = trivial_action_kernel(chain, cylinder, depth)
            assert len(scanned) == index_in(kernel, core)
            assert all(kernel.contains(HeisenbergElement(*x)) for x in scanned)


@PROPERTY_SETTINGS
@given(chains())
def test_lqa_witness_is_the_certificate_pair_at_one_depth(chain):
    # A certificate whose depth window ends at l2 evaluates the pair
    # (l1, l2) at depth l2 alone, which is exactly lqa_witness.
    for l2 in range(2, WINDOW[0] + 1):
        reports = {r.cylinder: r for r in wildness_certificate(chain, l2, l2).reports
                   if r.refined == l2}
        for l1 in range(1, l2):
            assert lqa_witness(chain, l1, l2, l2) == reports[l1]


@PROPERTY_SETTINGS
@given(chains())
def test_derived_witness_marks_exactly_the_gaps(chain):
    # A report's witness lies in its kernel and outside its comparison
    # kernel exactly when the kernel order exceeds 1; otherwise there is none.
    for r in wildness_certificate(chain, *WINDOW).reports:
        w = r.witness
        if r.kernel_order > 1:
            assert r.kernel_box.contains(w) and not r.comparison_box.contains(w)
        else:
            assert w is None


@PROPERTY_SETTINGS
@given(chains())
def test_raw_steinitz_order_is_lcm_of_box_indices(chain):
    for depth in range(1, ORDER_DEPTH + 1):
        indices = [chain.box_at(level).index() for level in range(1, depth + 1)]
        assert chain.steinitz_order(depth).raw.as_int() == lcm(*indices)


@PROPERTY_SETTINGS
@given(chains())
def test_stable_image_is_the_oracle_closure(chain):
    # The image box's residues mod the core are the closure of the deeper
    # box's generators in Q_level, its order is their count, and its
    # c-modulus is the core's whatever the depth.
    for level in range(1, SCAN_DEPTH + 1):
        core = chain.core_at(level)
        if core.index() > MAX_QUOTIENT:
            continue
        for depth in range(level, SCAN_DEPTH + 1):
            image = chain.stable_image(level, depth)
            assert image.Mc == core.Mc
            residues = {
                (a, b, c)
                for a in range(0, core.Ma, image.Ma)
                for b in range(0, core.Mb, image.Mb)
                for c in range(0, core.Mc, image.Mc)
            }
            closure = oracle.subgroup_closure(core, chain.box_at(depth).generators())
            assert closure == residues
            assert index_in(image, core) == len(closure)


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@PROPERTY_SETTINGS
@given(chains())
def test_kernel_law_is_the_closed_form_at_depth(chain):
    rows = chain.schedules(LAW_FAMILY_PRIMES)
    for cylinder in LAW_CYLINDERS:
        for depth in LAW_DEPTHS:
            kernel = trivial_action_kernel(chain, cylinder, depth)
            moduli = dict(zip("abc", (kernel.Ma, kernel.Mb, kernel.Mc)))
            for s in rows:
                for coord, modulus in moduli.items():
                    base, slope = _kernel_eventual(s, cylinder, coord)
                    assert _valuation(modulus, s.prime) == base + slope * depth


@PROPERTY_SETTINGS
@given(chains())
def test_kernel_law_keeps_the_slope_and_never_raises_the_base(chain):
    # Why a pair evaluation needs no runtime check: as the cylinder grows
    # by one level, a kernel exponent's eventual slope stays and its base
    # does not rise, so every gap is a prime power with exponent >= 0 and
    # survives the limit exactly when the shared slope is 0.
    for s in chain.schedules(KERNEL_LAW_LEVEL):
        for coord in ("a", "b"):
            for cylinder in range(KERNEL_LAW_LEVEL):
                base, slope = _kernel_eventual(s, cylinder, coord)
                next_base, next_slope = _kernel_eventual(s, cylinder + 1, coord)
                assert next_slope == slope and next_base <= base


@PROPERTY_SETTINGS
@given(chains())
@example(LATE_DROP)
@example(LATE_FLOOR)
def test_stable_level_is_one_past_the_last_surviving_drop(chain):
    # The reference walks the consecutive cylinders.  A kernel line of
    # slope 0 whose base drops from cylinder l to l + 1 leaves a gap that
    # survives the limit there; past the starts of its own and the c
    # schedule the box condition pins it to its own base.
    expected = 1
    for s in chain.explicit:
        for coord in ("a", "b"):
            if _kernel_eventual(s, 0, coord)[1] > 0:
                continue
            top = max(1, s.coord(coord).start, s.c.start)
            for level in range(1, top):
                if _kernel_eventual(s, level, coord)[0] != _kernel_eventual(s, level + 1, coord)[0]:
                    expected = max(expected, level + 1)
    assert _stable_level(chain) == expected


@st.composite
def schedule_rows(draw):
    """One to three explicit primes from {2, 3, 5, 7}, each coordinate with
    a start <= 6, a base <= 3 and a slope <= 2: the rows of a chain that
    `ChainSpec` may accept or reject.  Rows with an all-zero schedule are
    discarded, because that check comes before the ones compared here."""
    coord = st.builds(CoordSchedule, st.integers(0, 6), st.integers(0, 3), st.integers(0, 2))
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3, unique=True))
    rows = tuple(PrimeSchedule(p, draw(coord), draw(coord), draw(coord)) for p in primes)
    if any(all(f.is_zero() for f in (s.a, s.b, s.c)) for s in rows):
        reject()
    return rows


def _walk_rejection(rows):
    """What the level walk rejects the rows for, or None.  It checks the box
    condition and proper descent at every level up to the last start + 2,
    and the slopes past it, where every exponent is affine.  Primes are
    checked in increasing order, as `ChainSpec` stores them."""
    horizon = max([1] + [f.start for s in rows for f in (s.a, s.b, s.c)]) + 2
    for s in sorted(rows, key=lambda s: s.prime):
        for level in range(1, horizon + 1):
            ea, eb, ec = (f.exponent(level) for f in (s.a, s.b, s.c))
            if ec > ea + eb:
                return f"prime {s.prime}: box condition fails at level {level}"
        if s.c.slope > s.a.slope + s.b.slope:
            return f"prime {s.prime}: box condition fails for all large levels"
    scheds = [f for s in rows for f in (s.a, s.b, s.c)]
    for level in range(1, horizon + 1):
        if all(f.exponent(level + 1) == f.exponent(level) for f in scheds):
            return (
                f"chain is not properly descending at level {level} -> {level + 1}; "
                "it is eventually constant"
            )
    if not any(f.slope > 0 for f in scheds):
        return "chain is eventually constant: no growing schedule and no family"
    return None


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(schedule_rows())
# The box condition fails only at level 3, the level before b starts.
@example(
    (PrimeSchedule(2, CoordSchedule(1, 2, 0), CoordSchedule(4, 0, 1), CoordSchedule(1, 0, 1)),)
)
def test_breakpoints_decide_what_the_level_walk_decides(rows):
    # Validation reads only the breakpoints.  It accepts and rejects what
    # the walk does, with the walk's descent message.  The box condition
    # may fail first inside an interval between breakpoints, so there it
    # names the walk's prime and a level at which the condition fails.
    walk = _walk_rejection(rows)
    try:
        ChainSpec("drawn", rows, trivial_intersection=False)
        found = None
    except ContractError as exc:
        found = str(exc)
    assert (found is None) == (walk is None)
    if found is None or "box condition" not in found:
        assert found == walk
        return
    prime = int(re.match(r"prime (\d+):", found).group(1))
    assert walk.startswith(f"prime {prime}:")
    s = next(s for s in rows if s.prime == prime)
    level = re.search(r"at level (\d+)", found)
    if level is None:
        assert s.c.slope > s.a.slope + s.b.slope
    else:
        ea, eb, ec = (f.exponent(int(level.group(1))) for f in (s.a, s.b, s.c))
        assert ec > ea + eb


@PROPERTY_SETTINGS
@given(chains())
@example(wild_chain(2, 1))
@example(wild_chain(3, 2, enumeration=TreeBranchPrimes(2, 3)))
def test_level_walk_lists_the_schedule_of_each_prime(chain):
    # The walk finds the family primes by index, `schedule` by counting
    # primes.  A listed prime is explicit or has support by the level, and
    # both routes give it the same schedule.  The family enumerates
    # increasingly, so no prime past the last listed one has support.
    explicit = {s.prime for s in chain.explicit}
    for level in range(1, WALK_LEVELS + 1):
        rows = chain.schedules(level)
        listed = [s.prime for s in rows]
        assert listed == sorted(set(listed))
        assert all(s == schedule(chain, s.prime) for s in rows)
        for p in filter(isprime, range(listed[-1] + 1)):
            s = schedule(chain, p)
            supported = any(s.coord(x).exponent(level) for x in "abc")
            assert (p in listed) == (p in explicit or supported)


@PROPERTY_SETTINGS
@given(chains())
def test_kernel_moduli_divide_the_next_depths(chain):
    # Kernels only shrink with the depth, so once a kernel's smallest
    # modulus passes a freeness ball radius every deeper one does too:
    # the freeness walk's first escape is final.
    for cylinder in LAW_CYLINDERS:
        for depth in range(max(cylinder, 1), MONOTONE_DEPTH + 1):
            kernel = trivial_action_kernel(chain, cylinder, depth)
            deeper = trivial_action_kernel(chain, cylinder, depth + 1)
            assert deeper.Ma % kernel.Ma == deeper.Mb % kernel.Mb == deeper.Mc % kernel.Mc == 0


def _scan(chain, cylinder, depth):
    """`oracle.fixing_scan` and the core C_depth, or None past the budgets
    of `gen_chains.py` (|Q_d| and the cosets inside the cylinder)."""
    if depth < max(cylinder, 1):
        return None
    core = chain.core_at(depth)
    if core.index() > SCAN_QUOTIENT:
        return None
    if core.index() // chain.box_at(cylinder).index() > MAX_SCAN_CELLS:
        return None
    budget = oracle.OracleBudget(max_group_order=SCAN_QUOTIENT * MAX_SCAN_CELLS)
    return oracle.fixing_scan(chain, cylinder, depth, budget), core


def _ball_reaches(residue, core, radius) -> bool:
    """Whether a non-identity element with coordinates in [-radius, radius]
    reduces to `residue` modulo the core.  Per coordinate, r mod M has a
    lift in the ball exactly when min(r, M - r) <= radius; for r = 0 the
    lifts +-M are the non-identity ones."""
    moduli = (core.Ma, core.Mb, core.Mc)
    near = [min(r, m - r) <= radius for r, m in zip(residue, moduli)]
    nonzero = [m <= radius if r == 0 else ok for r, m, ok in zip(residue, moduli, near)]
    return all(near) and any(nonzero)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(chains())
def test_freeness_verdict_is_the_fixing_scan_in_the_ball(chain):
    # FreeCertified at escape depth d: no non-identity element of the ball
    # fixes the cylinder at depth d, and one still does at d - 1, so d is
    # the first escape.  NotFree: the witness fixes it at every depth.
    for cylinder in FREENESS_CYLINDERS:
        cert = freeness_certificate(chain, cylinder, FREENESS_RADIUS, FREENESS_DEPTH)
        if cert.verdict == "FreeCertified":
            for depth, reached in ((cert.escape_depth, False), (cert.escape_depth - 1, True)):
                found = _scan(chain, cylinder, depth)
                if found is not None:
                    scanned, core = found
                    assert any(_ball_reaches(x, core, FREENESS_RADIUS) for x in scanned) == reached
        elif cert.verdict == "NotFree":
            w = cert.witness
            for depth in range(cylinder, FREENESS_DEPTH + 1):
                found = _scan(chain, cylinder, depth)
                if found is not None:
                    scanned, core = found
                    assert (w.a % core.Ma, w.b % core.Mb, w.c % core.Mc) in scanned


@PROPERTY_SETTINGS
@given(chains())
@example(LATE_PINCHED)
def test_not_free_witness_lies_in_every_tested_kernel(chain):
    # A NotFree witness is read off the kernel law and is not checked
    # against any kernel: each kernel contains the deeper ones, so the
    # witness must lie in the kernel at every depth from the cylinder to
    # max_depth, also where max_depth ends before the last schedule start.
    for cylinder in NOT_FREE_CYLINDERS:
        for max_depth in range(max(cylinder, 1), NOT_FREE_DEPTH + 1):
            cert = freeness_certificate(chain, cylinder, FREENESS_RADIUS, max_depth)
            if cert.verdict == "NotFree":
                for depth in range(max(cylinder, 1), max_depth + 1):
                    assert trivial_action_kernel(chain, cylinder, depth).contains(cert.witness)


@PROPERTY_SETTINGS
@given(chains())
@example(LATE_PINCHED)
def test_not_free_witness_is_the_generator_past_every_start(chain):
    # The reference route: the kernel past every schedule start, where
    # each exponent is affine, has settled, so the witness must be one of
    # its generators.  Membership alone would also accept a multiple.
    for cylinder in NOT_FREE_CYLINDERS:
        cert = freeness_certificate(chain, cylinder, FREENESS_RADIUS, max(cylinder, 1))
        if cert.verdict == "NotFree":
            kernel = trivial_action_kernel(chain, cylinder, _last_start(chain) + 1)
            assert cert.witness in kernel.generators()


@PROPERTY_SETTINGS
@given(chains())
@example(LATE_PINCHED)
def test_not_free_exactly_when_the_c_modulus_settles(chain):
    # The schedule rule, restated from the rows: a coordinate's box modulus
    # settles when every explicit slope and the family exponent in it are
    # 0.  NotFree exactly when c settles, with witness (0, 0, prod p^c.base)
    # at every cylinder; trivial_intersection=True is refused exactly when
    # some coordinate settles.
    f = chain.family
    settles = {
        x: all(s.coord(x).slope == 0 for s in chain.explicit)
        and (f is None or getattr(f, f"{x}_exp") == 0)
        for x in "abc"
    }
    for cylinder in SETTLE_CYLINDERS:
        cert = freeness_certificate(chain, cylinder, FREENESS_RADIUS, max(cylinder, 1))
        assert (cert.verdict == "NotFree") == settles["c"]
        if settles["c"]:
            modulus = prod(s.prime**s.c.base for s in chain.explicit)
            assert cert.witness == HeisenbergElement(0, 0, modulus)
            assert cert.reason == "the c-lattice of the kernel is bounded"
    try:
        ChainSpec(chain.label, chain.explicit, chain.family)
        refused = None
    except ContractError as exc:
        refused = str(exc)
    if any(settles.values()):
        x = next(x for x in "abc" if settles[x])
        assert refused is not None and f"the {x}-modulus is bounded" in refused
    else:
        assert refused is None


@PROPERTY_SETTINGS
@given(chains())
def test_stabilized_discriminant_keeps_its_limit_order(chain):
    # A stabilized report claims its last image order for every deeper
    # depth.  Check the next depths' images, and where Q_level fits the
    # benchmark's scan budget, the oracle's closure of the deeper boxes.
    budget = oracle.OracleBudget(max_group_order=SCAN_QUOTIENT)
    for level in DISCRIMINANT_LEVELS:
        core = chain.core_at(level)
        for max_depth in (level, level + 1):
            rep = discriminant_limit_report(chain, level, max_depth)
            if not rep.stabilized:
                continue
            assert rep.limit_order == rep.orders[-1]
            for depth in range(max_depth + 1, max_depth + 1 + LIMIT_DEPTHS):
                assert index_in(chain.stable_image(level, depth), core) == rep.limit_order
                if core.index() <= SCAN_QUOTIENT:
                    gens = chain.box_at(depth).generators()
                    assert len(oracle.subgroup_closure(core, gens, budget)) == rep.limit_order


@PROPERTY_SETTINGS
@given(chains())
@example(stable_chain((2, 3), (1, 1), (2, 2), (5,)))
def test_steinitz_limit_exponents_are_read_off_the_raw_orders(chain):
    # Past every schedule start a promoted prime's raw exponent grows at
    # each depth, and every other prime's raw exponent is its finite
    # limit exponent, family primes included.
    depth = _last_start(chain) + 1
    order = chain.steinitz_order(depth)
    raws = [order.raw] + [chain.steinitz_order(depth + k).raw for k in (1, 2)]
    for p in (s.prime for s in chain.schedules(depth)):
        exponents = [raw.multiplicity(p) for raw in raws]
        if p in order.limit.infinite_primes:
            assert exponents[0] < exponents[1] < exponents[2]
        else:
            assert exponents == [order.limit.multiplicity(p)] * 3


def _image(box, core):
    """The image of `box` in Gamma/core, as the box box*core it pulls back
    to: a gcd per coordinate (see ChainSpec.stable_image)."""
    return BoxSubgroup(gcd(box.Ma, core.Ma), gcd(box.Mb, core.Mb), gcd(box.Mc, core.Mc))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(chains())
def test_persistent_gaps_are_the_gaps_the_limit_keeps(chain):
    # The independent route to the limit: past every schedule start, map
    # both cylinders' kernels from far deeper into Q_d.  Growing kernel
    # parts have left Q_d by then and constant ones stay, so the index of
    # the two images is the gap that survives the inverse limit, and a
    # marked gap must be exactly that.
    for l2 in range(2, WINDOW[0] + 1):
        d = max(l2, _last_start(chain))
        core = chain.core_at(d)
        for l1 in range(1, l2):
            columns = {
                l: {e: trivial_action_kernel(chain, l, e) for e in range(l2, WINDOW[1] + 1)}
                for l in (l1, l2)
            }
            report, limit_gap = _evaluate_pair(
                chain.schedules(WINDOW[0]), l1, l2, columns, l2, WINDOW[1]
            )
            outer, inner = (
                _image(trivial_action_kernel(chain, l, d + LIMIT_LOOKAHEAD), core)
                for l in (l1, l2)
            )
            surviving = index_in(inner, core) // index_in(outer, core)
            assert surviving == limit_gap
            if report.persistent:
                assert report.kernel_order == surviving


@PROPERTY_SETTINGS
@given(chains(family=st.just(True)))
def test_family_gap_decides_wildness(chain):
    # Theorem 1.5: a family that opens a kernel gap g >= 1 at each of its
    # endless activations makes the chain wild; with g = 0 it opens none
    # and the finitely many explicit primes leave it stable.
    expected = "WildEvidence" if _family_activation_gap(chain) >= 1 else "StableCertified"
    for window in (WINDOW, WIDE_WINDOW):
        assert wildness_certificate(chain, *window).verdict == expected


@PROPERTY_SETTINGS
@given(chains(family=st.just(True)))
def test_family_part_of_a_gap_is_q_to_the_g(chain):
    # The Sylow argument, by the numeric route: family primes are disjoint
    # from the explicit ones, so in the gap of cylinders l1 < l2 at depth d
    # the family prime entering at level i has valuation g when
    # l1 < i <= l2 and 0 otherwise, whatever the explicit primes do.
    g = _family_activation_gap(chain)
    for d in range(2, SYLOW_DEPTH + 1):
        top = min(d, SYLOW_CYLINDERS)
        kernels = {l: trivial_action_kernel(chain, l, d) for l in range(1, top + 1)}
        for l2 in range(2, top + 1):
            for l1 in range(1, l2):
                gap = index_in(kernels[l2], kernels[l1])
                for i in range(1, d + 1):
                    expected = g if l1 < i <= l2 else 0
                    assert _valuation(gap, chain.family.prime_at(i)) == expected


@PROPERTY_SETTINGS
@given(chains())
@example(LATE_GROWTH)
def test_wildness_verdict_is_window_independent(chain):
    verdicts = {wildness_certificate(chain, *window).verdict for window in VERDICT_WINDOWS}
    assert len(verdicts) == 1


@st.composite
def branch_chains(draw):
    """Corollary 1.6's chains: q_i^(r | n | n), 1 <= r < n, with the family
    over one branch of the binary tree."""
    width = draw(st.integers(1, BRANCH_WIDTH))
    branch = draw(st.integers(0, 2**width - 1))
    n = draw(st.integers(2, 5))  # so r + 2n repeats: (n, r) = (4, 3) and (5, 1) give 11
    r = draw(st.integers(1, n - 1))
    return wild_chain(n, r, enumeration=TreeBranchPrimes(branch, width))


def _stripped_word(chain) -> str:
    branch = chain.family.primes
    return format(branch.branch, f"0{branch.width}b").rstrip("0")


@PROPERTY_SETTINGS
@given(branch_chains(), branch_chains())
@example(
    wild_chain(4, 3, enumeration=TreeBranchPrimes(1, 1)),
    wild_chain(5, 1, enumeration=TreeBranchPrimes(4, 3)),
)
@example(
    wild_chain(2, 1, enumeration=TreeBranchPrimes(1, 2)),
    wild_chain(3, 2, enumeration=TreeBranchPrimes(2, 3)),
)
def test_branch_limits_are_equivalent_exactly_when_words_and_sums_agree(x, y):
    # Corollary 1.6: distinct branches give pairwise inequivalent limits,
    # so uncountably many wild actions are told apart by their orders.
    lx, ly = x.steinitz_order(1).limit, y.steinitz_order(1).limit
    same = _stripped_word(x) == _stripped_word(y) and lx.tail.exponent == ly.tail.exponent
    assert lx.tail.exponent == x.family.a_exp + 2 * x.family.b_exp
    assert asymptotically_equivalent(lx, ly) == same
    # The independent route: multiplicities at each tail's first primes.
    primes = {z.tail.primes.prime(i) for z in (lx, ly) for i in range(BRANCH_PRIMES)}
    for a, b in ((lx, ly), (ly, lx)):
        assert type_leq(a, b) == all(a.multiplicity(p) <= b.multiplicity(p) for p in primes)
    assert wildness_certificate(x, *WINDOW).verdict == "WildEvidence"
