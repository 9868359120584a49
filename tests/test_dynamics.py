"""Trivial-action kernels, wildness/stability certificates, freeness."""

import pytest

from nilcantor import dynamics
from nilcantor.errors import ContractError, ResourceError
from nilcantor.heisenberg import BoxSubgroup, HeisenbergElement, index_in
from nilcantor.dynamics import (
    discriminant_limit_report,
    freeness_certificate,
    lqa_witness,
    trivial_action_kernel,
    wildness_certificate,
)
from nilcantor.steinitz import Primes, TreeBranchPrimes
from nilcantor.towers import (
    ChainSpec,
    CoordSchedule,
    IndexedFamily,
    PrimeSchedule,
    ex41,
    ex42,
    stable_chain,
    wild_chain,
)

from helpers import escape_depth


# -- kernels ---------------------------------------------------------------------


def test_kernel_examples():
    w = wild_chain(2, 1)
    assert trivial_action_kernel(w, 1, 2) == BoxSubgroup(18, 36, 36)
    assert trivial_action_kernel(w, 2, 2) == w.box_at(2)
    assert trivial_action_kernel(w, 0, 2) == w.core_at(2)


@pytest.mark.parametrize("cylinder, depth", [(-1, 3), (3, 2), (0, 0)])
def test_kernel_refuses_levels_out_of_order(cylinder, depth):
    # Refused by the kernel's own contract, before any box is built.
    with pytest.raises(ContractError, match="need depth >= cylinder >= 0"):
        trivial_action_kernel(ex41(2), cylinder, depth)


def test_kernel_contains_core_inside_box():
    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1)):
        for cyl in (1, 2):
            for d in range(cyl, 5):
                k = trivial_action_kernel(chain, cyl, d)
                assert k.contains_box(chain.core_at(d))
                assert chain.box_at(d).contains_box(k)


def test_kernels_antitone_in_cylinder():
    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1), stable_chain((2,), (1,), (2,), (3,))):
        for d in (3, 4):
            for l1 in range(1, d):
                for l2 in range(l1 + 1, d + 1):
                    k1 = trivial_action_kernel(chain, l1, d)
                    k2 = trivial_action_kernel(chain, l2, d)
                    assert k2.contains_box(k1)


def test_kernel_is_pointwise_fixing_set():
    # Direct semantics check at depth 2: the kernel's generators fix every
    # depth-2 coset inside their cylinder, and (6,0,0), in the level-2
    # kernel but not the level-1 one, moves a coset inside the level-1
    # cylinder.
    chain, depth = wild_chain(2, 1), 2
    box_d = chain.box_at(depth)

    def fixes_all(g, cyl):
        box_l = chain.box_at(cyl)
        return all(
            box_d.canonical(g * h) == box_d.canonical(h)
            for h in (
                HeisenbergElement(a, b, c)
                for a in range(0, box_d.Ma, box_l.Ma)
                for b in range(0, box_d.Mb, box_l.Mb)
                for c in range(0, box_d.Mc, box_l.Mc)
            )
        )

    comparison, kernel = (trivial_action_kernel(chain, cyl, depth) for cyl in (1, 2))
    assert (kernel, comparison) == (BoxSubgroup(6, 36, 36), BoxSubgroup(18, 36, 36))
    assert all(fixes_all(g, 2) for g in kernel.generators())
    assert all(fixes_all(g, 1) for g in comparison.generators())
    mover = HeisenbergElement(6, 0, 0)
    assert kernel.contains(mover) and not comparison.contains(mover)
    assert fixes_all(mover, 2) and not fixes_all(mover, 1)


# -- witnesses --------------------------------------------------------------------


def test_lqa_witness_example():
    w = wild_chain(2, 1)
    report = lqa_witness(w, 1, 2, 2)
    assert report.kernel_order == 3
    assert report.witness == HeisenbergElement(6, 0, 0)
    assert report.persistent
    assert report.kernel_box == BoxSubgroup(6, 36, 36)
    assert report.comparison_box == BoxSubgroup(18, 36, 36)


@pytest.mark.parametrize("cylinder, refined, depth", [(0, 1, 3), (2, 2, 3), (1, 3, 2)])
def test_lqa_witness_refuses_levels_out_of_order(cylinder, refined, depth):
    with pytest.raises(ContractError, match="need depth >= refined > cylinder >= 1"):
        lqa_witness(wild_chain(2, 1), cylinder, refined, depth)


def test_lqa_witness_contract():
    w = wild_chain(2, 1)
    with pytest.raises(ContractError):
        lqa_witness(w, 2, 2, 3)
    with pytest.raises(ContractError):
        lqa_witness(w, 1, 2, 1)


def test_lqa_witness_acts_as_advertised():
    # The witness fixes every depth-2 coset of the smaller cylinder and
    # moves some depth-2 coset of the larger one.
    chain = wild_chain(2, 1)
    report = lqa_witness(chain, 1, 2, 2)
    g = report.witness
    box2, box1 = chain.box_at(2), chain.box_at(1)
    reps_small = [
        HeisenbergElement(a, b, c)
        for a in range(0, box2.Ma, box2.Ma)
        for b in range(0, box2.Mb, box2.Mb)
        for c in range(0, box2.Mc, box2.Mc)
    ]
    assert all(box2.canonical(g * h) == box2.canonical(h) for h in reps_small)
    reps_large = [
        HeisenbergElement(a, b, c)
        for a in range(0, box2.Ma, box1.Ma)
        for b in range(0, box2.Mb, box1.Mb)
        for c in range(0, box2.Mc, box1.Mc)
    ]
    assert any(box2.canonical(g * h) != box2.canonical(h) for h in reps_large)


def _window_chain():
    return ChainSpec(
        "window",
        (
            PrimeSchedule(
                5, a=CoordSchedule(1, 1, 1), b=CoordSchedule(1, 2, 2), c=CoordSchedule(3, 2, 1)
            ),
        ),
        IndexedFamily(Primes(exclude=(5,)), 2, 0, 1),
        trivial_intersection=False,
    )


def test_lqa_witness_judges_persistence_at_its_one_depth():
    # The family prime 3 opens a gap of 3 between cylinders 1 and 2 at every
    # depth; the schedules predict it and it survives the limit.  From
    # depth 3 on, prime 5's c-schedule starts and its growing parts change
    # both kernels but not the gap, so the gap is marked at each depth
    # alone and over the certificate's depths 2..5.
    chain = _window_chain()
    at = {d: lqa_witness(chain, 1, 2, d) for d in range(2, 6)}
    assert all(r.kernel_order == 3 and r.persistent for r in at.values())
    assert at[2].kernel_box != at[3].kernel_box
    over_2_to_5 = {(r.cylinder, r.refined): r for r in wildness_certificate(chain, 3, 5).reports}
    assert over_2_to_5[(1, 2)] == at[2]


# Prime 2's c-schedule starts at depth 3 and its a-schedule at depth 10, so
# the kernel gap between cylinders 1 and 2 opens at depth 3 and closes again
# at depth 10: over depths 2..12 the pair's orders are 1, 2 (seven times),
# 1, 1, 1.
TRANSIENT = ChainSpec(
    "transient",
    (
        PrimeSchedule(
            2, a=CoordSchedule(10, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(3, 0, 1)
        ),
        PrimeSchedule(
            3, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)
        ),
    ),
)


def test_order_constancy_decides_the_persistent_mark():
    # At depth 2 alone the order 1 equals the predicted ratio and the limit
    # gap, so the one-depth report is marked; over depths 2..12 the order
    # is not constant, so the certificate's report of the same pair is not.
    orders = [
        index_in(trivial_action_kernel(TRANSIENT, 2, d), trivial_action_kernel(TRANSIENT, 1, d))
        for d in range(2, 13)
    ]
    assert orders == [1] + [2] * 7 + [1] * 3
    assert lqa_witness(TRANSIENT, 1, 2, 2).persistent
    reports = {(r.cylinder, r.refined): r for r in wildness_certificate(TRANSIENT, 3, 12).reports}
    assert reports[(1, 2)].kernel_order == 1
    assert not reports[(1, 2)].persistent


def test_stable_family_kernels_are_level_independent():
    chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
    for d in (2, 3, 4):
        kernels = {trivial_action_kernel(chain, l, d) for l in range(1, d + 1)}
        assert len(kernels) == 1
        # the shared a-lattice is 6 * 5^d
        assert kernels.pop().Ma == 6 * 5**d
    for d in range(2, 5):
        for l1 in range(1, d):
            for l2 in range(l1 + 1, d + 1):
                assert lqa_witness(chain, l1, l2, d).kernel_order == 1


# -- wildness certificates ------------------------------------------------------------


def test_wild_family_certificate():
    cert = wildness_certificate(wild_chain(2, 1), 3, 5)
    assert cert.verdict == "WildEvidence"
    orders = {(r.cylinder, r.refined): r.kernel_order for r in cert.reports}
    assert orders == {(1, 2): 3, (1, 3): 15, (2, 3): 5}
    assert all(r.persistent for r in cert.reports)
    assert cert.evidence_grade == "schedule-certified"


@pytest.mark.parametrize(
    "window,calls", [((2, 2), 2), ((4, 9), 29), ((5, 12), 49), ((16, 40), 519)]
)
def test_each_pair_builds_one_kernel_column_per_cylinder(window, calls, monkeypatch):
    # The certificate builds each cylinder's kernels once, at the depths
    # max(l, 2)..D and no deeper, and every pair reads the two columns it
    # compares: the window (L, D) makes sum over l = 1..L of
    # (D - max(l, 2) + 1) kernel calls, and no (cylinder, depth) twice.
    built = []

    def counting(chain, cylinder, depth):
        built.append((cylinder, depth))
        return trivial_action_kernel(chain, cylinder, depth)

    monkeypatch.setattr(dynamics, "trivial_action_kernel", counting)
    max_cylinder, max_depth = window
    wildness_certificate(wild_chain(2, 1), max_cylinder, max_depth)
    expected = sum(max_depth - max(l, 2) + 1 for l in range(1, max_cylinder + 1))
    assert len(built) == expected == calls
    assert len(set(built)) == len(built)


def test_failed_persistence_flags_do_not_hide_wildness():
    # Line 0003 of the seed-7 census: each predicted ratio holds a part of
    # prime 3, whose kernel exponents grow (from depth 3 on the gap at
    # (1, 2) is 75 against a limit gap of 25), so no ratio is its limit gap
    # and no gap is marked.  The family gap g = 2 survives at every
    # cylinder, so every window reads the same wild verdict off the
    # schedules.
    chain = ChainSpec(
        "census-0003",
        (
            PrimeSchedule(
                3, a=CoordSchedule(0, 0, 1), b=CoordSchedule(1, 2, 0), c=CoordSchedule(3, 1, 1)
            ),
        ),
        IndexedFamily(Primes(exclude=(3,)), 1, 1, 2),
        trivial_intersection=False,
    )
    for window in ((2, 2), (2, 3), (3, 5), (4, 9)):
        cert = wildness_certificate(chain, *window)
        assert cert.verdict == "WildEvidence" and cert.reason is None
        assert cert.evidence_grade == "schedule-certified"
        assert not any(r.persistent for r in cert.reports)
        assert all(r.kernel_order > 1 for r in cert.reports)


def test_wild_kernel_orders_match_activation_product():
    # order(l, l', d) = product of q_i^(n-r) over activations l < i <= l'
    chain = wild_chain(3, 1)
    qs = (2, 3, 5, 7, 11)
    for l1, l2 in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)):
        expected = 1
        for i in range(l1 + 1, l2 + 1):
            expected *= qs[i - 1] ** (3 - 1)
        for d in range(l2, 6):
            k = trivial_action_kernel(chain, l2, d)
            c = trivial_action_kernel(chain, l1, d)
            assert index_in(k, c) == expected


def test_stable_family_certificate():
    cert = wildness_certificate(stable_chain((2, 3), (1, 1), (2, 2), (5,)), 3, 4)
    assert cert.verdict == "StableCertified"
    assert cert.stable_from_level <= 2
    assert all(r.kernel_order == 1 for r in cert.reports)


def test_wild_family_with_infinite_part_still_wild():
    chain = wild_chain(2, 1, pi_inf=(5,))
    cert = wildness_certificate(chain, 3, 5)
    assert cert.verdict == "WildEvidence"
    orders = {(r.cylinder, r.refined): r.kernel_order for r in cert.reports}
    # activations skip 5: q = 2, 3, 7, ...
    assert orders == {(1, 2): 3, (1, 3): 21, (2, 3): 7}


def test_kernel_towers_map_into_shallower_kernels():
    # image of the deeper kernel in Q_d always lands inside the depth-d
    # kernel image: the connecting maps carry kernels into kernels
    from math import gcd

    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1)):
        for cyl in (1, 2):
            for d in range(max(cyl, 1), 5):
                core = chain.core_at(d)
                k0 = trivial_action_kernel(chain, cyl, d)
                k1 = trivial_action_kernel(chain, cyl, d + 1)
                img0 = (gcd(k0.Ma, core.Ma), gcd(k0.Mb, core.Mb), gcd(k0.Mc, core.Mc))
                img1 = (gcd(k1.Ma, core.Ma), gcd(k1.Mb, core.Mb), gcd(k1.Mc, core.Mc))
                # deeper kernels are smaller subgroups, so their images sit
                # inside the shallower image: lattice steps divide
                assert all(i1 % i0 == 0 for i0, i1 in zip(img0, img1))


def test_ex41_certificate_is_stable_despite_transient_gaps():
    cert = wildness_certificate(ex41(2), 3, 6)
    assert cert.verdict == "StableCertified"
    assert cert.stable_from_level == 1
    # finite-depth kernels do differ...
    assert any(r.kernel_order > 1 for r in cert.reports)
    # ...but none of those gaps survives the limit
    assert not any(r.persistent and r.kernel_order > 1 for r in cert.reports)


def test_ex41_transient_gap_dies_along_the_tower():
    # The depth-d kernel at cylinder 2 maps to the trivial element of Q_d'
    # once d is large: 2^(2d - 2) is a multiple of 2^(2d') for d >= d' + 1.
    chain = ex41(2)
    for d_small in (1, 2):
        core = chain.core_at(d_small)
        k = trivial_action_kernel(chain, 2, d_small + 2)
        assert k.Ma % core.Ma == 0 and k.Mb % core.Mb == 0 and k.Mc % core.Mc == 0


def test_ex42_certificate_stable():
    cert = wildness_certificate(ex42(2, 3), 3, 5)
    assert cert.verdict == "StableCertified"


# A finite chain whose b/c-schedules activate at level 3: it leaves real
# (surviving) kernel gaps below level 3, and the growing prime keeps it
# descending.
LATE = ChainSpec(
    "late",
    (
        PrimeSchedule(
            2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)
        ),
        PrimeSchedule(
            3, a=CoordSchedule(3, 1, 0), b=CoordSchedule(3, 2, 0), c=CoordSchedule(3, 2, 0)
        ),
    ),
)


def test_late_start_chain_gets_honest_stable_level():
    # The surviving gaps below level 3 forbid stability from level 1.
    cert = wildness_certificate(LATE, 4, 6)
    assert cert.verdict == "StableCertified"
    assert cert.stable_from_level == 3
    report = lqa_witness(LATE, 2, 3, 4)
    assert report.kernel_order == 3 and report.persistent


def test_surviving_gap_above_the_stable_level_is_inconclusive(monkeypatch):
    # The one Inconclusive wildness path: a stable level set too low (1
    # instead of 3) meets the surviving gaps of every pair that reaches
    # level 3, and the certificate names them instead of claiming
    # stability.
    monkeypatch.setattr(dynamics, "_stable_level", lambda chain: 1)
    cert = wildness_certificate(LATE, 4, 6)
    assert cert.verdict == "Inconclusive"
    assert cert.stable_from_level is None
    assert cert.reason == (
        "surviving gaps above the computed stable level: [(1, 3), (1, 4), (2, 3), (2, 4)]"
    )


@pytest.mark.parametrize(
    "chain", [wild_chain(2, 1), ex42(2, 3), LATE], ids=["wild", "ex42", "late"]
)
def test_no_wildness_verdict_reads_a_kernel(chain, monkeypatch):
    # The verdict reads schedule facts only: kernels with every modulus
    # doubled change the printed reports and nothing else.
    honest = wildness_certificate(chain, 4, 6)

    def doubled(chain, cylinder, depth):
        kernel = trivial_action_kernel(chain, cylinder, depth)
        return BoxSubgroup(2 * kernel.Ma, 2 * kernel.Mb, 2 * kernel.Mc)

    monkeypatch.setattr(dynamics, "trivial_action_kernel", doubled)
    skewed = wildness_certificate(chain, 4, 6)
    assert skewed.reports != honest.reports
    verdict = ("verdict", "evidence_grade", "stable_from_level", "reason")
    assert [getattr(skewed, f) for f in verdict] == [getattr(honest, f) for f in verdict]


def test_wildness_precondition():
    with pytest.raises(ContractError):
        wildness_certificate(ex41(2), 1, 4)
    with pytest.raises(ContractError):
        wildness_certificate(ex41(2), 3, 2)


# -- freeness ---------------------------------------------------------------------------


def test_wild_family_is_topologically_free():
    cert = freeness_certificate(wild_chain(2, 1), 1, 100, 6)
    assert cert.verdict == "FreeCertified"
    assert cert.escape_depth == 3


def test_escape_depth_examples():
    chain = wild_chain(2, 1)
    assert escape_depth(chain, 1, HeisenbergElement(0, 0, 4), 6) == 2
    assert escape_depth(chain, 1, HeisenbergElement(1, 0, 0), 6) == 1
    assert escape_depth(chain, 1, HeisenbergElement(0, 0, 0), 6) is None


def test_escape_depth_walks_from_the_cylinder_to_max_depth():
    chain = ex41(2)
    assert escape_depth(chain, 0, HeisenbergElement(1, 0, 0), 3) == 1
    assert escape_depth(chain, 2, HeisenbergElement(4, 0, 0), 3) == 3
    assert escape_depth(chain, 2, HeisenbergElement(4, 0, 0), 2) is None
    # An empty window reads no level.
    assert escape_depth(wild_chain(2, 1), 1, HeisenbergElement(1, 0, 0), 0) is None


def test_every_small_element_escapes():
    chain = wild_chain(2, 1)
    kernel3 = trivial_action_kernel(chain, 1, 3)
    assert min(kernel3.Ma, kernel3.Mb, kernel3.Mc) > 100
    for g in (
        HeisenbergElement(100, 0, 0),
        HeisenbergElement(0, -100, 0),
        HeisenbergElement(0, 0, 100),
        HeisenbergElement(-36, 36, 36),
        HeisenbergElement(90, 90, 90),
    ):
        assert escape_depth(chain, 1, g, 6) <= 3


@pytest.mark.parametrize("call,kernels", [((3, 10**9, 400), 5), ((1, 100, 6), 3)])
def test_freeness_walk_stops_at_the_escape_depth(call, kernels, monkeypatch):
    # Each kernel modulus divides the one a depth deeper, so the walk
    # stops at the first escape: depths 3..7 for the deep benchmark call
    # (escape 7), and 1..3 for the golden one (escape 3).
    built = []

    def counting(chain, cylinder, depth):
        built.append(depth)
        return trivial_action_kernel(chain, cylinder, depth)

    monkeypatch.setattr(dynamics, "trivial_action_kernel", counting)
    cert = freeness_certificate(wild_chain(2, 1), *call)
    assert cert.verdict == "FreeCertified"
    assert built == list(range(call[0], cert.escape_depth + 1))
    assert len(built) == kernels


def _pinched_chain(family=None):
    return ChainSpec(
        "pinched",
        (
            PrimeSchedule(
                2,
                a=CoordSchedule(1, 0, 1),
                b=CoordSchedule(1, 0, 1),
                c=CoordSchedule(1, 2, 0),
            ),
        ),
        family,
        trivial_intersection=False,
    )


def test_freeness_ball_radius_starts_at_one():
    assert freeness_certificate(ex41(2), 1, 1, 5).verdict == "FreeCertified"


@pytest.mark.parametrize(
    "cylinder, radius, max_depth", [(1, 0, 5), (3, 10, 2), (0, 10, 0), (-1, 10, 3)]
)
def test_freeness_refuses_arguments_out_of_range(cylinder, radius, max_depth):
    with pytest.raises(ContractError, match="need ball_radius >= 1, cylinder >= 0"):
        freeness_certificate(ex41(2), cylinder, radius, max_depth)


def test_degenerate_chain_is_not_free():
    pinched = _pinched_chain()
    cert = freeness_certificate(pinched, 1, 10, 5)
    assert cert.verdict == "NotFree"
    assert cert.witness == HeisenbergElement(0, 0, 4)
    for d in range(1, 6):
        assert trivial_action_kernel(pinched, 1, d).contains(cert.witness)


def test_not_free_builds_the_same_kernels_at_every_max_depth(monkeypatch):
    # The NotFree path reads its witness off the kernel law, however deep
    # the window: it builds no kernel at all.
    built = []

    def counting(chain, cylinder, depth):
        built.append(depth)
        return trivial_action_kernel(chain, cylinder, depth)

    monkeypatch.setattr(dynamics, "trivial_action_kernel", counting)
    chain = _pinched_chain(family=IndexedFamily(Primes(exclude=(2,)), 1, 1, 0))
    counts = []
    for max_depth in (6, 400):
        built.clear()
        cert = freeness_certificate(chain, 1, 10, max_depth)
        assert cert.verdict == "NotFree" and cert.witness == HeisenbergElement(0, 0, 4)
        counts.append(len(built))
    assert counts == [0, 0]


def test_freeness_inconclusive_when_depth_too_small():
    cert = freeness_certificate(wild_chain(2, 1), 1, 100, 2)
    assert cert.verdict == "Inconclusive"
    assert "raise max_depth" in cert.reason
    assert cert.evidence_grade == "finite-depth"


# -- discriminant limit reports -----------------------------------------------------------


@pytest.mark.parametrize("level, max_depth", [(0, 3), (3, 2)])
def test_discriminant_report_refuses_levels_out_of_order(level, max_depth):
    with pytest.raises(ContractError, match="need 1 <= level <= max_depth"):
        discriminant_limit_report(ex41(2), level, max_depth)


def test_discriminant_report_ex41():
    rep = discriminant_limit_report(ex41(2), 1, 4)
    assert rep.orders == (4, 1, 1, 1)
    assert rep.stabilized
    assert rep.limit_order == 1


def test_discriminant_report_ex42():
    rep = discriminant_limit_report(ex42(2, 3), 1, 4)
    assert rep.orders == (6, 6, 6, 6)
    assert rep.stabilized
    assert rep.limit_order == 6


def test_discriminant_report_stable_family():
    chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
    rep = discriminant_limit_report(chain, 1, 3)
    assert rep.orders[-1] == 6
    assert rep.stabilized


def test_discriminant_report_stabilizes_on_two_equal_images():
    rep = discriminant_limit_report(ex42(2, 3), 1, 2)
    assert rep.orders == (6, 6) and rep.stabilized and rep.limit_order == 6
    assert not discriminant_limit_report(ex41(2), 1, 2).stabilized


def test_discriminant_report_single_depth():
    chain = ex42(2, 3)
    rep = discriminant_limit_report(chain, 2, 2)
    assert rep.orders == (index_in(chain.box_at(2), chain.core_at(2)),)


def test_wild_family_discriminant_grows():
    # each activation contributes q^(n-r) to |D_l|: 2, 6, 30, ...
    chain = wild_chain(2, 1)
    assert [index_in(chain.box_at(l), chain.core_at(l)) for l in (1, 2, 3)] == [2, 6, 30]
    rep = discriminant_limit_report(chain, 1, 4)
    assert rep.stabilized  # image inside the fixed level stabilizes


def test_discriminant_report_builds_its_level_core_once(monkeypatch):
    # Every image is read over the one level core; a core per depth would
    # rebuild the same box at every depth.
    chain = wild_chain(2, 1)
    levels = []
    core_at = ChainSpec.core_at
    monkeypatch.setattr(
        ChainSpec, "core_at", lambda self, level: levels.append(level) or core_at(self, level)
    )
    rep = discriminant_limit_report(chain, 5, 40)
    assert levels == [5]
    assert rep.orders[-1] == index_in(chain.stable_image(5, 40), chain.core_at(5))


def test_level_walks_count_no_primes(monkeypatch):
    # Once the chain is built, every level walk reads the family primes by
    # index: none of these may find a prime's index by counting primes.
    chain = wild_chain(2, 1)

    def refuse(_enumeration, p):
        raise AssertionError(f"a level walk looked up the index of {p}")

    monkeypatch.setattr(Primes, "index_of", refuse)
    monkeypatch.setattr(TreeBranchPrimes, "index_of", refuse)
    assert chain.box_at(200).Ma % chain.family.prime_at(200) == 0
    assert chain.steinitz_order(50).raw.multiplicity(229) == 5
    assert wildness_certificate(chain, 8, 20).verdict == "WildEvidence"
    assert discriminant_limit_report(chain, 5, 40).stabilized


# -- depth budget -----------------------------------------------------------------------


def test_certificates_refuse_family_primes_past_the_sieve():
    # Branch 1 activates the prime 2,699,453 at level 17 and 5,694,137 at
    # level 18, past the sieve cap.  Each certificate refuses once its
    # deepest level reaches 18; on this chain each reads no deeper than
    # the depth given.
    branch = wild_chain(2, 1, enumeration=TreeBranchPrimes(1, 1))
    for certify, deepest_ok in (
        (lambda d: wildness_certificate(branch, 2, d), 17),
        (lambda d: lqa_witness(branch, 1, 2, d), 17),
        (lambda d: freeness_certificate(branch, 1, 10, d), 17),
        (lambda d: discriminant_limit_report(branch, 1, d), 17),
    ):
        certify(deepest_ok)
        with pytest.raises(ResourceError, match=f"depth {deepest_ok + 1} .* sieve cap"):
            certify(deepest_ok + 1)
