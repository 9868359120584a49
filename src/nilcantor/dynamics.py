"""Stability, wildness and freeness analysis for box-subgroup chains.

The central object is the *trivial-action kernel*: the set of elements of
Gamma_l that fix every depth-d coset inside the level-l cylinder of the
odometer.  For g in Gamma_l this says h^-1 g h in Gamma_d for every
h in Gamma_l, i.e. the kernel is the relative core of Gamma_d over
Gamma_l, available in closed form and cross-checked by enumeration.

Comparing kernels for two cylinder levels l < l' at the same depth
measures how much more can act trivially on the smaller cylinder.  A
nontrivial gap at finite depth is only *evidence*: the completion's
action has a genuine violation iff the gap survives the inverse limit of
the quotient groups.  Because every exponent schedule here is eventually
affine in the depth, that survival question is decidable:

  * a kernel-lattice exponent with positive slope outgrows every fixed
    quotient, so its component dies in the limit (the connecting maps
    eventually annihilate it);
  * a constant exponent survives verbatim.

Certificates therefore carry two grades of statement: exact finite-depth
numbers, and schedule-certified facts about the limit.  A chain is
stable (locally quasi-analytic completion) as soon as *some* cylinder
level has no surviving gaps below it, so transient gaps at small levels
are consistent with a stable verdict; wildness needs surviving gaps
inside every cylinder, which only the indexed family's endless
activations can certify.
"""

from __future__ import annotations

from math import prod
from typing import Optional

from ._value import Value, set_field
from .errors import ContractError
from .heisenberg import GAMMA, BoxSubgroup, HeisenbergElement, index_in, relative_core
from .towers import ChainSpec, PrimeSchedule

__all__ = [
    "trivial_action_kernel",
    "KernelReport",
    "Certificate",
    "DiscriminantReport",
    "lqa_witness",
    "wildness_certificate",
    "freeness_certificate",
    "discriminant_limit_report",
]


def trivial_action_kernel(chain: ChainSpec, cylinder: int, depth: int) -> BoxSubgroup:
    """Elements acting trivially on every depth-`depth` coset inside the
    level-`cylinder` cylinder: the relative core of Gamma_depth over
    Gamma_cylinder.  `cylinder`=0 means the whole space, so the outer group
    is GAMMA and the kernel is the normal core."""
    if cylinder < 0 or depth < max(cylinder, 1):
        raise ContractError("need depth >= cylinder >= 0 and depth >= 1")
    outer = chain.box_at(cylinder) if cylinder else GAMMA
    return relative_core(outer, chain.box_at(depth))


# -- symbolic kernel analysis -------------------------------------------------


def _kernel_eventual(s: PrimeSchedule, cylinder: int, coord: str) -> tuple[int, int]:
    """Eventual (base, slope) in the depth of the kernel's lattice exponent
    at the prime of schedule s in the given coordinate, for a fixed
    cylinder level (cylinder 0 is the whole space).  This is the one home
    of the kernel law; every schedule-level statement below reads it from
    here.

    From the relative-core closed form, with k the other coordinate's
    exponent at the cylinder:
        a: max(e_a(d), e_c(d) - min(e_c(d), e_b(cylinder)))
        b: max(e_b(d), e_c(d) - min(e_c(d), e_a(cylinder)))
        c: e_c(d)
    so for a and b it is eventually the larger of two lines, compared by
    (slope, base): the own schedule and the c-schedule shifted down by k.
    The own line is never below the zero line, as its slope and base are
    non-negative, so zero needs no line of its own.

    In a and b the cylinder enters only through k = e_other(cylinder)
    (0 for the whole space), which never falls as the cylinder grows
    because every schedule is monotone, and k is subtracted from the
    c-line's base.  So the winning slope is the largest slope, whatever k
    is, and the winning base cannot rise: a smaller cylinder's exponent
    has the same slope and a base no larger.  The pair evaluation relies
    on this unchecked; a tier-1 property checks it on generated chains.
    """
    ec = s.c
    if coord == "c":
        return ec.base, ec.slope
    own, other = (s.a, s.b) if coord == "a" else (s.b, s.a)
    k = other.exponent(cylinder) if cylinder >= 1 else 0
    slope, base = max((own.slope, own.base), (ec.slope, ec.base - k))
    return base, slope


def _family_activation_gap(chain: ChainSpec) -> int:
    """Exponent by which each newly activated family prime q widens the
    kernel gap: q's kernel base at cylinder i-1 minus its base at cylinder
    i, summed over the a- and b-lattices, where q enters at level i.  The
    family exponents are constant, so the first prime (i = 1) stands for
    all of them; 0 when there is no family or no gap."""
    if chain.family is None:
        return 0
    q = chain.family.schedule_at(1)
    return sum(_kernel_eventual(q, 0, x)[0] - _kernel_eventual(q, 1, x)[0] for x in ("a", "b"))


def _stable_level(chain: ChainSpec) -> int:
    """Smallest cylinder level L such that no kernel gap survives the limit
    between any L <= l < l'.

    Only primes whose c-schedule is eventually constant can leave a
    surviving gap.  Where the own schedule (a or b) grows, its line wins
    the kernel law at every cylinder, so the base is constant and the
    bisection below returns 1.  Where it is constant too, by the box
    condition the kernel exponent is pinned to its base once the level
    passes both starts; below that the exact values decide.  By the kernel
    law the base never rises with the cylinder, so the levels at the floor
    are the ones from some first level on, found by bisection.
    """
    level = 1
    for s in chain.explicit:
        if s.c.slope > 0:
            continue
        for coord in ("a", "b"):
            lo, hi = 1, max(s.coord(coord).start, s.c.start)
            floor = _kernel_eventual(s, hi, coord)[0]
            while lo < hi:
                mid = (lo + hi) // 2
                if _kernel_eventual(s, mid, coord)[0] == floor:
                    hi = mid
                else:
                    lo = mid + 1
            level = max(level, lo)
    return level


# -- reports and certificates --------------------------------------------------


class KernelReport(Value):
    """Finite-depth comparison of the trivial-action kernels at two
    cylinder levels l = `cylinder` < l' = `refined` at depth d = `depth`.
    `kernel_box` is the kernel at the smaller cylinder (l'),
    `comparison_box` the kernel at the larger cylinder (l); `persistent`
    is printed evidence that the gap survives the inverse limit, by the
    one rule of `_evaluate_pair`: a constant kernel order that equals the
    predicted ratio and the limit gap, read off the two cylinders' kernel
    columns at the tested depths and no deeper.  Verdicts read the
    schedules instead.

    `kernel_order` and `witness` are derived from the two boxes.  The one
    check is that `comparison_box` lies inside `kernel_box`: then every
    modulus ratio is a positive integer, so the order (their product) is
    at least 1, and a witness exists exactly when some ratio exceeds 1.
    The witness is the kernel's generator in that coordinate, so it lies
    in the kernel and, its coordinate being a proper divisor of the
    comparison's modulus, outside the comparison.
    """

    __slots__ = ("cylinder", "refined", "depth", "kernel_box", "comparison_box", "persistent")
    _shown = __slots__[:5] + ("kernel_order", "witness", "persistent")

    def __init__(
        self,
        cylinder: int,
        refined: int,
        depth: int,
        kernel_box: BoxSubgroup,
        comparison_box: BoxSubgroup,
        persistent: bool = False,
    ):
        if not kernel_box.contains_box(comparison_box):
            raise ContractError(f"{comparison_box} is not contained in the kernel {kernel_box}")
        set_field(self, "cylinder", cylinder)
        set_field(self, "refined", refined)
        set_field(self, "depth", depth)
        set_field(self, "kernel_box", kernel_box)
        set_field(self, "comparison_box", comparison_box)
        set_field(self, "persistent", persistent)

    @property
    def kernel_order(self) -> int:
        return index_in(self.kernel_box, self.comparison_box)

    @property
    def witness(self) -> Optional[HeisenbergElement]:
        kernel, comparison = self.kernel_box, self.comparison_box
        ratios = (
            comparison.Ma // kernel.Ma,
            comparison.Mb // kernel.Mb,
            comparison.Mc // kernel.Mc,
        )
        if max(ratios) == 1:
            return None
        return kernel.generators()[ratios.index(max(ratios))]  # ties break a, then b, then c


def _evaluate_pair(rows: list, l1: int, l2: int, columns: dict, first: int, last: int):
    """Compare the kernels at cylinder levels l1 < l2 at the depths
    first..last with the schedule prediction read off `_kernel_eventual`.
    `columns[l]` maps each of those depths to the kernel at cylinder l, and
    `rows` holds the schedules of some level >= l2; the caller builds both,
    so a certificate shares them among all its pairs.  A family prime that
    enters after l2 has the same kernel base at both cylinders, so its
    factor is 1.

    Returns the KernelReport at depth `first` and the order of the gap
    that survives the inverse limit (constant kernel exponents survive
    verbatim; growing ones are eventually annihilated by the connecting
    maps).  By the kernel law each prime's part of the predicted ratio is
    p to the base difference of the two cylinders.  The gap is `persistent`
    when the kernel order is the same at every tested depth and equals
    both the predicted ratio and the limit gap: then the whole gap lies
    in slope-0 prime parts, which by the Sylow decomposition (see
    `wildness_certificate`) survive verbatim.  Nothing past `last` is
    read.  The flag is printed evidence only: the wildness verdict reads
    the limit gap.
    """
    outer, inner = ([columns[l][d] for d in range(first, last + 1)] for l in (l1, l2))
    orders = [index_in(k, c) for k, c in zip(inner, outer)]
    ratio, limit_gap = 1, 1
    for s in rows:
        for coord in ("a", "b"):
            base, slope = _kernel_eventual(s, l1, coord)
            gap = s.prime ** (base - _kernel_eventual(s, l2, coord)[0])
            ratio *= gap
            if slope == 0:
                limit_gap *= gap
    persistent = set(orders) == {ratio} == {limit_gap}
    return KernelReport(l1, l2, first, inner[0], outer[0], persistent), limit_gap


def lqa_witness(chain: ChainSpec, cylinder: int, refined: int, depth: int) -> KernelReport:
    """Compare the kernels at cylinder levels `cylinder` < `refined` at one
    depth.  A kernel order above 1 exhibits an element that acts trivially
    on every depth-d coset of the smaller cylinder while moving a coset of
    the larger one: the local quasi-analyticity violation pattern with the
    identity as the second element.  `persistent` is the printed flag of
    `_evaluate_pair` at this one depth: the kernel order equals the
    predicted ratio and the limit gap.  Only the kernels at `depth` are
    built: two one-kernel columns."""
    chain.check_depth_budget(depth, f"an LQA witness at depth {depth}")
    if not (depth >= refined > cylinder >= 1):
        raise ContractError("need depth >= refined > cylinder >= 1")
    columns = {l: {depth: trivial_action_kernel(chain, l, depth)} for l in (cylinder, refined)}
    return _evaluate_pair(chain.schedules(refined), cylinder, refined, columns, depth, depth)[0]


GRADE_FINITE = "finite-depth"
GRADE_SCHEDULE = "schedule-certified"


class Certificate(Value):
    """A structured verdict with exactly the evidence that was computed.

    `verdict` is one of StableCertified, WildEvidence, FreeCertified,
    NotFree and Inconclusive; `reports` holds the KernelReport evidence,
    when relevant.  `evidence_grade` is derived from the verdict: an
    Inconclusive verdict rests on finite-depth numbers alone, and every
    other verdict is read off the schedules.
    """

    __slots__ = ("verdict", "reports", "stable_from_level", "witness", "reason", "escape_depth")
    _shown = ("verdict", "evidence_grade") + __slots__[1:]

    def __init__(
        self,
        verdict: str,
        reports: tuple = (),
        stable_from_level: Optional[int] = None,
        witness: Optional[HeisenbergElement] = None,
        reason: Optional[str] = None,
        escape_depth: Optional[int] = None,
    ):
        set_field(self, "verdict", verdict)
        set_field(self, "reports", reports)
        set_field(self, "stable_from_level", stable_from_level)
        set_field(self, "witness", witness)
        set_field(self, "reason", reason)
        set_field(self, "escape_depth", escape_depth)

    @property
    def evidence_grade(self) -> str:
        return GRADE_FINITE if self.verdict == "Inconclusive" else GRADE_SCHEDULE


def wildness_certificate(chain: ChainSpec, max_cylinder: int, max_depth: int) -> Certificate:
    """Classify the chain as WildEvidence / StableCertified / Inconclusive.

    The kernel column of each cylinder l <= max_cylinder is built once,
    at the depths max(l, 2)..max_depth, so the window (L, D) builds
    sum over l = 1..L of (D - max(l, 2) + 1) kernels (519 at (16, 40)).
    Each pair of cylinder levels l1 < l2 <= max_cylinder is evaluated at
    the depths l2..max_depth by `_evaluate_pair`, which reads the two
    columns there.  Its report is printed evidence, marked
    `persistent` when the kernel order is constant over those depths and
    equals the predicted ratio and the limit gap; the verdict reads the
    schedules alone:

      1. a family gap g = `_family_activation_gap` >= 1: WildEvidence;
      2. else StableCertified(l0), l0 = `_stable_level`: no limit gap
         survives between levels >= l0 (finite-depth gaps below l0, or
         gaps that die in the limit, are consistent with it), unless a
         tested pair at or above l0 keeps a surviving gap: Inconclusive.

    Step 1 is the Sylow decomposition.  Q_d is finite nilpotent, so it is
    the direct product of its Sylow subgroups and the connecting maps
    respect that product: the q-part of a kernel gap survives or dies on
    q's schedule alone.  Family primes are disjoint from the explicit
    primes, so for each family prime q activated in (l1, l2] the q-part of
    pair (l1, l2)'s gap is exactly q^g.  The family exponents are
    constant, so that part survives the limit, and a fresh prime enters at
    every level: every cylinder l keeps a surviving gap at (l, l+1).
    """
    if not (max_depth >= max_cylinder >= 2):
        raise ContractError("need max_depth >= max_cylinder >= 2")
    chain.check_depth_budget(max_depth, f"a wildness certificate to depth {max_depth}")
    columns = {
        l: {d: trivial_action_kernel(chain, l, d) for d in range(max(l, 2), max_depth + 1)}
        for l in range(1, max_cylinder + 1)
    }
    rows = chain.schedules(max_cylinder)
    pairs = {
        (l1, l2): _evaluate_pair(rows, l1, l2, columns, l2, max_depth)
        for l1 in range(1, max_cylinder)
        for l2 in range(l1 + 1, max_cylinder + 1)
    }
    reports = tuple(report for report, _gap in pairs.values())
    if _family_activation_gap(chain) >= 1:
        return Certificate("WildEvidence", reports)

    level = _stable_level(chain)
    stray = [(l1, l2) for (l1, l2), (_r, gap) in pairs.items() if l1 >= level and gap != 1]
    if stray:
        return Certificate(
            "Inconclusive",
            reports,
            reason=f"surviving gaps above the computed stable level: {stray}",
        )
    return Certificate("StableCertified", reports, stable_from_level=level)


def freeness_certificate(
    chain: ChainSpec, cylinder: int, ball_radius: int, max_depth: int
) -> Certificate:
    """Certify that no non-identity element fixes the cylinder pointwise.

    NotFree: the boxes' c-modulus settles (`ChainSpec.settled_factors`),
    and the witness is the generator (0, 0, M) at the settled modulus M,
    whatever the cylinder, with no kernel built.  By the kernel law the
    kernel's c-exponent is e_c(d) itself, so its c-lattice is bounded
    exactly then; each kernel contains the deeper ones (kernel moduli
    divide the next depth's), so the witness lies in every kernel from the
    cylinder on.  No a- or b-lattice is bounded alone: each holds the
    c-line e_c(d) - k for a k fixed by the cylinder, and a family prime
    entering past the cylinder has the kernel base max(a_exp or b_exp,
    c_exp) there, so a growing c-modulus makes both grow.  Tier-1
    properties check the witness against the kernels themselves.
    FreeCertified: all three kernel lattices are certifiably unbounded, so
    the full intersection of the kernels is trivial, and `escape_depth` is
    the first depth by `max_depth` whose kernel's smallest modulus exceeds
    `ball_radius`, so that every non-identity element with coordinates
    bounded by `ball_radius` leaves it.  The kernels are walked once, from
    the shallowest depth up, and the walk stops there: each kernel modulus
    divides the one a depth deeper, so the first escape is final.  A walk
    that finds none is Inconclusive.
    """
    if ball_radius < 1 or max_depth < max(cylinder, 1) or cylinder < 0:
        raise ContractError(
            "need ball_radius >= 1, cylinder >= 0 and max_depth >= max(cylinder, 1)"
        )
    chain.check_depth_budget(max_depth, f"a freeness certificate to depth {max_depth}")

    settled = chain.settled_factors("c")
    if settled is not None:
        witness = HeisenbergElement(0, 0, prod(p**e for p, e in settled))
        reason = "the c-lattice of the kernel is bounded"
        return Certificate("NotFree", witness=witness, reason=reason)

    for d in range(max(cylinder, 1), max_depth + 1):
        kernel = trivial_action_kernel(chain, cylinder, d)
        if min(kernel.Ma, kernel.Mb, kernel.Mc) > ball_radius:
            return Certificate("FreeCertified", escape_depth=d)
    return Certificate(
        "Inconclusive",
        reason="kernel lattices are unbounded but a ball element still "
        f"survives depth {max_depth}; raise max_depth",
    )


class DiscriminantReport(Value):
    """Orders of the stabilized images of D_depth inside D_level.  A
    stabilized report's `limit_order` is its last order, certified by the
    schedules; an open one has no limit order and finite-depth evidence."""

    __slots__ = ("level", "depths", "orders", "stabilized")
    _shown = __slots__ + ("limit_order", "evidence_grade")

    def __init__(self, level: int, depths: tuple, orders: tuple, stabilized: bool):
        set_field(self, "level", level)
        set_field(self, "depths", depths)
        set_field(self, "orders", orders)
        set_field(self, "stabilized", stabilized)

    @property
    def limit_order(self) -> Optional[int]:
        return self.orders[-1] if self.stabilized else None

    @property
    def evidence_grade(self) -> str:
        return GRADE_SCHEDULE if self.stabilized else GRADE_FINITE


def discriminant_limit_report(chain: ChainSpec, level: int, max_depth: int) -> DiscriminantReport:
    """Track the images of the deeper discriminant levels inside D_level.

    Each image is a box between Gamma_level and C_level, read over the
    level core built once (ChainSpec.image_over), and its order is its
    index over that core.  The orders are antitone in the depth.
    `stabilized` is set when two consecutive image boxes coincide *and*
    the schedule-level floor box equals the last one, so deeper levels
    provably cannot shrink it further.
    """
    if not 1 <= level <= max_depth:
        raise ContractError("need 1 <= level <= max_depth")
    chain.check_depth_budget(max_depth, f"a discriminant report to depth {max_depth}")
    depths = tuple(range(level, max_depth + 1))
    core = chain.core_at(level)
    images = [chain.image_over(core, d) for d in depths]
    orders = tuple(index_in(img, core) for img in images)

    # An image's a- and b-exponents at p are the minimum of the box's at the
    # depth and the core's, max(e_x, e_c), at the level: a growing box
    # exponent reaches the core's, a constant one caps it.  The c-modulus
    # is the core's at every depth (ChainSpec.stable_image).
    floor = []
    for coord in ("a", "b"):
        lat = 1
        for s in chain.schedules(level):
            own = s.coord(coord)
            core_exp = max(own.exponent(level), s.c.exponent(level))
            lat *= s.prime ** (core_exp if own.slope > 0 else min(own.base, core_exp))
        floor.append(lat)
    symbolic = BoxSubgroup(*floor, core.Mc) == images[-1]
    stabilized = symbolic and (len(images) == 1 or images[-1] == images[-2])
    return DiscriminantReport(level, depths, orders, stabilized)
