"""Closed forms versus dumb enumeration on targeted cases.

The exhaustive all-boxes sweep lives in the acceptance suite; these tests
pin the oracle semantics themselves and a few cross-checks that the
acceptance sweep does not repeat.
"""

import random

import pytest

from nilcantor.errors import ContractError, ResourceError
from nilcantor.heisenberg import (
    GAMMA,
    BoxSubgroup,
    HeisenbergElement,
    index_in,
    relative_core,
)
from nilcantor.oracle import (
    OracleBudget,
    canonical_by_enumeration,
    canonical_table_by_enumeration,
    core_by_enumeration,
    coset_partition,
    fixing_scan,
    relative_core_by_enumeration,
    residue_law,
    subgroup_closure,
)
from nilcantor.towers import ChainSpec, CoordSchedule, PrimeSchedule, wild_chain
from nilcantor.dynamics import trivial_action_kernel


def test_core_oracle_examples():
    assert core_by_enumeration(BoxSubgroup(2, 2, 4)) == BoxSubgroup(4, 4, 4)
    assert core_by_enumeration(BoxSubgroup(2, 3, 6)) == BoxSubgroup(6, 6, 6)
    assert core_by_enumeration(GAMMA) == GAMMA


def test_core_oracle_budget():
    # 12^2 conjugators x (2*13 candidates + 13^2 survivor pairs) = 28,080
    # tests fit 9,000 x 4; at Mc = 13 the scan needs 37,856 and is refused.
    budget = OracleBudget(max_group_order=9000)
    assert core_by_enumeration(BoxSubgroup(1, 12, 12), budget) == BoxSubgroup(12, 12, 12)
    with pytest.raises(ResourceError) as err:
        core_by_enumeration(BoxSubgroup(1, 13, 13), budget)
    assert "core scan of Box(1,13,13): 37856 exceeds" in str(err.value)
    assert "budget 36000 (max_group_order 9000 x 4)" in str(err.value)


def test_core_oracle_equals_closed_form_all_moduli_up_to_12():
    for ma in range(1, 13):
        for mb in range(1, 13):
            for mc in range(1, 13):
                if (ma * mb) % mc:
                    continue
                box = BoxSubgroup(ma, mb, mc)
                assert core_by_enumeration(box) == box.core()


def test_relative_core_oracle_examples():
    assert relative_core_by_enumeration(BoxSubgroup(2, 3, 6), BoxSubgroup(4, 9, 36)) == BoxSubgroup(12, 18, 36)
    b = BoxSubgroup(2, 2, 4)
    assert relative_core_by_enumeration(GAMMA, b) == core_by_enumeration(b)
    assert relative_core_by_enumeration(b, b) == b


def test_relative_core_oracle_budget_states_demand_and_budget():
    with pytest.raises(ResourceError) as err:
        relative_core_by_enumeration(
            BoxSubgroup(2, 3, 6), BoxSubgroup(4, 9, 36), OracleBudget(max_group_order=1000)
        )
    # at most 36^2 conjugator residues, each against 2 * 37 candidates
    assert "scan of Box(4,9,36) in Box(2,3,6): 95904 exceeds" in str(err.value)
    assert "budget 4000 (max_group_order 1000 x 4)" in str(err.value)


def test_relative_core_oracle_handles_coarse_outer_moduli():
    # Outer moduli can exceed the inner central modulus; the conjugator
    # residues mod Mc' still have to be enumerated as a set.
    outer = BoxSubgroup(3, 1, 1)
    inner = BoxSubgroup(6, 1, 2)
    assert relative_core_by_enumeration(outer, inner) == relative_core(outer, inner)


def _residues(box, core) -> frozenset:
    """The residues mod the core of a box that contains it: its lattice."""
    return frozenset(
        (a, b, c)
        for a in range(0, core.Ma, box.Ma)
        for b in range(0, core.Mb, box.Mb)
        for c in range(0, core.Mc, box.Mc)
    )


def test_fixing_scan_matches_kernel():
    chain = wild_chain(2, 1)
    for cyl, depth in ((1, 1), (1, 2), (2, 2), (0, 1)):
        scanned = fixing_scan(chain, cyl, depth)
        kernel = trivial_action_kernel(chain, cyl, depth) if cyl else chain.core_at(depth)
        assert scanned == _residues(kernel, chain.core_at(depth))


def test_fixing_scan_example_size():
    scanned = fixing_scan(wild_chain(2, 1), 2, 2)
    assert len(scanned) == 6
    assert (0, 0, 0) in scanned


def test_fixing_scan_on_seeded_random_small_chains():
    rng = random.Random(43)
    built = 0
    while built < 10:
        sa, sb = rng.randrange(0, 3), rng.randrange(0, 3)
        sc = rng.randrange(0, min(sa + sb, 2) + 1)
        if sa + sb + sc == 0:
            continue
        try:
            chain = ChainSpec(
                "rand",
                (
                    PrimeSchedule(
                        2,
                        a=CoordSchedule(1, 0, sa),
                        b=CoordSchedule(1, 0, sb),
                        c=CoordSchedule(1, 0, sc),
                    ),
                ),
                trivial_intersection=False,
            )
        except ContractError:
            continue
        built += 1
        core = chain.core_at(2)
        if core.index() > 5000:
            continue
        scanned = fixing_scan(chain, 1, 2)
        assert scanned == _residues(trivial_action_kernel(chain, 1, 2), core)


def test_subgroup_closure_cap():
    core = BoxSubgroup(64, 64, 64)
    with pytest.raises(ResourceError):
        subgroup_closure(core, ((1, 0, 0), (0, 1, 0)), OracleBudget(max_group_order=100))


def test_quotient_well_defined_on_representatives():
    reduce, mul, inv = residue_law(BoxSubgroup(12, 6, 3))
    rng = random.Random(23)
    for _ in range(300):
        x = (rng.randrange(-50, 50), rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = (rng.randrange(-50, 50), rng.randrange(-50, 50), rng.randrange(-50, 50))
        shifted_x = (x[0] + 12 * rng.randrange(-3, 4), x[1] + 6 * rng.randrange(-3, 4), x[2] + 3 * rng.randrange(-3, 4))
        assert mul(reduce(x), reduce(y)) == mul(reduce(shifted_x), reduce(y))
        assert mul(reduce(x), inv(reduce(x))) == (0, 0, 0)
    # the law is defined on the residues of normal boxes only
    for box in (BoxSubgroup(2, 2, 4), BoxSubgroup(4, 2, 4), BoxSubgroup(2, 4, 4)):
        with pytest.raises(ContractError, match="not normal"):
            residue_law(box)


def test_partition_examples():
    assert len(coset_partition(BoxSubgroup(2, 2, 4))) == 16
    assert len(coset_partition(GAMMA)) == 1
    classes = coset_partition(BoxSubgroup(2, 2, 4), span=3)
    cls = next(c for c in classes if (3, 5, 7) in c)
    assert (1, 1, 3) in cls


def test_partition_classes_have_uniform_size():
    boxes = (
        BoxSubgroup(2, 3, 6), BoxSubgroup(2, 2, 2), BoxSubgroup(1, 4, 4), BoxSubgroup(20, 20, 1)
    )
    for box in boxes:
        classes = coset_partition(box, span=2)
        assert len(classes) == index_in(GAMMA, box)
        assert {len(c) for c in classes} == {8}


def test_canonical_oracle_agrees_with_closed_form():
    rng = random.Random(47)
    for box in (BoxSubgroup(2, 2, 4), BoxSubgroup(2, 3, 6), BoxSubgroup(4, 6, 8)):
        for _ in range(25):
            g = HeisenbergElement(
                rng.randrange(-40, 40), rng.randrange(-40, 40), rng.randrange(-40, 40)
            )
            assert canonical_by_enumeration(box, g) == box.canonical(g)


def test_canonical_table_matches_closed_form():
    boxes = (
        BoxSubgroup(2, 2, 4), BoxSubgroup(3, 2, 6), BoxSubgroup(1, 1, 1), BoxSubgroup(5, 1, 1)
    )
    for box in boxes:
        for span in (1, 2, 3):
            table = canonical_table_by_enumeration(box, span)
            assert len(table) == span**3 * box.index()
            for g, rep in table.items():
                assert box.canonical(HeisenbergElement(*g)) == rep


def test_coset_table_refuses_before_walking():
    # span^3 * index points: 27 * 16 = 432 at span 3 over Box(2,2,4)
    budget = OracleBudget(max_group_order=431)
    assert len(canonical_table_by_enumeration(BoxSubgroup(2, 2, 4), 2, budget)) == 128
    with pytest.raises(ResourceError) as err:
        coset_partition(BoxSubgroup(2, 2, 4), budget, span=3)
    assert str(err.value) == (
        "points of the coset table of Box(2,2,4) at span 3: 432 exceeds budget 431 "
        "(max_group_order 431)"
    )


def test_budget_is_validated():
    with pytest.raises(ContractError):
        OracleBudget(max_group_order=0)
