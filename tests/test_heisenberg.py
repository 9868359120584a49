"""Element arithmetic against a 3x3 matrix oracle; box closed forms
against small exhaustive enumerations."""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcantor.errors import ContractError
from nilcantor.heisenberg import (
    GAMMA,
    BoxSubgroup,
    HeisenbergElement,
    index_in,
    relative_core,
)
from nilcantor.oracle import coset_partition
from nilcantor.steinitz import Primes
from nilcantor.towers import CoordSchedule


# -- matrix oracle -----------------------------------------------------------


def as_matrix(g):
    return ((1, g.a, g.c), (0, 1, g.b), (0, 0, 1))


def mat_mul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def from_matrix(m):
    return HeisenbergElement(m[0][1], m[1][2], m[0][2])


coords = st.integers(min_value=-10**6, max_value=10**6)
elements = st.builds(HeisenbergElement, coords, coords, coords)


@given(elements, elements)
def test_multiply_matches_matrix_product(g, h):
    assert g * h == from_matrix(mat_mul(as_matrix(g), as_matrix(h)))


@given(elements)
def test_inverse_matches_matrix_inverse(g):
    assert (g * g.inverse()) == HeisenbergElement(0, 0, 0)
    assert (g.inverse() * g) == HeisenbergElement(0, 0, 0)


@given(elements, elements)
def test_conjugate_matches_composition(g, by):
    expected = by * g * by.inverse()
    assert g.conjugate_by(by) == expected


@given(elements, elements, elements)
def test_associativity(g, h, k):
    assert (g * h) * k == g * (h * k)


@given(elements, elements)
def test_conjugation_only_shears_c(g, by):
    conj = g.conjugate_by(by)
    assert (conj.a, conj.b) == (g.a, g.b)


def test_multiplication_examples():
    assert HeisenbergElement(1, 0, 0) * HeisenbergElement(0, 1, 0) == HeisenbergElement(1, 1, 1)
    assert HeisenbergElement(0, 1, 0) * HeisenbergElement(1, 0, 0) == HeisenbergElement(1, 1, 0)
    g = HeisenbergElement(7, -4, 11)
    assert g * HeisenbergElement(0, 0, 0) == g


def test_inverse_examples():
    assert HeisenbergElement(1, 1, 0).inverse() == HeisenbergElement(-1, -1, 1)
    assert HeisenbergElement(0, 0, 5).inverse() == HeisenbergElement(0, 0, -5)
    assert HeisenbergElement(1, 0, 0).inverse() == HeisenbergElement(-1, 0, 0)


def test_conjugation_shear_relations():
    x, y, z = HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0), HeisenbergElement(0, 0, 1)
    assert y.conjugate_by(x) == HeisenbergElement(0, 1, 1)  # x y x^-1 = y z
    assert z.conjugate_by(x) == z  # x z x^-1 = z
    assert HeisenbergElement(2, 3, 4).conjugate_by(HeisenbergElement(1, 1, 1)) == HeisenbergElement(2, 3, 5)


# -- value semantics -------------------------------------------------------------


def test_value_semantics():
    g, box = HeisenbergElement(1, 2, 3), BoxSubgroup(2, 3, 6)
    assert g == HeisenbergElement(1, 2, 3) and hash(g) == hash(HeisenbergElement(1, 2, 3))
    assert box == BoxSubgroup(2, 3, 6) and hash(box) == hash(BoxSubgroup(2, 3, 6))
    assert g != HeisenbergElement(1, 2, 4) and box != BoxSubgroup(2, 3, 3)
    # every field counts: changing one alone gives a different value
    assert g != HeisenbergElement(0, 2, 3) and g != HeisenbergElement(1, 0, 3)
    assert box != BoxSubgroup(4, 3, 6) and box != BoxSubgroup(2, 6, 6)
    # equality needs the same class, not just the same fields
    assert BoxSubgroup(2, 2, 2) != CoordSchedule(2, 2, 2)
    assert len({g, HeisenbergElement(1, 2, 3), box, BoxSubgroup(2, 3, 6)}) == 2
    for value, field in ((g, "a"), (box, "Ma"), (Primes((5,)), "exclude")):
        with pytest.raises(AttributeError):
            setattr(value, field, 7)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert repr(g) == "HeisenbergElement(a=1, b=2, c=3)"
    assert repr(box) == "BoxSubgroup(Ma=2, Mb=3, Mc=6)"
    # a cached property lives beside the fields and stays out of equality
    cached = Primes((5,))
    assert cached.prime(2) == 7 and cached == Primes((5,)) and repr(cached) == "Primes(exclude=(5,))"


# -- boxes --------------------------------------------------------------------


def test_box_closure_condition():
    BoxSubgroup(2, 3, 6)  # fine: 6 | 6
    with pytest.raises(ContractError):
        BoxSubgroup(2, 2, 8)  # 8 does not divide 4
    with pytest.raises(ContractError):
        BoxSubgroup(1, 1, 0)


def test_elements_and_boxes_check_each_coordinate():
    # A bad value is refused in whichever coordinate it stands.
    for i in range(3):
        coords, moduli = [1, 2, 3], [2, 3, 6]
        coords[i], moduli[i] = 1.5, 0
        with pytest.raises(ContractError, match="integers"):
            HeisenbergElement(*coords)
        with pytest.raises(ContractError, match="positive integers"):
            BoxSubgroup(*moduli)


def test_membership():
    b = BoxSubgroup(2, 2, 4)
    assert b.contains(HeisenbergElement(2, 0, 4))
    assert not b.contains(HeisenbergElement(1, 0, 0))
    assert BoxSubgroup(2, 3, 6).contains(HeisenbergElement(4, 9, 36))


def test_box_is_closed_under_law():
    rng = random.Random(7)
    for _ in range(200):
        ma, mb = rng.randrange(1, 9), rng.randrange(1, 9)
        divisors = [d for d in range(1, 9) if (ma * mb) % d == 0]
        box = BoxSubgroup(ma, mb, rng.choice(divisors))
        g = HeisenbergElement(
            box.Ma * rng.randrange(-5, 6),
            box.Mb * rng.randrange(-5, 6),
            box.Mc * rng.randrange(-5, 6),
        )
        h = HeisenbergElement(
            box.Ma * rng.randrange(-5, 6),
            box.Mb * rng.randrange(-5, 6),
            box.Mc * rng.randrange(-5, 6),
        )
        assert box.contains(g * h)
        assert box.contains(g.inverse())


def test_index_examples():
    assert index_in(GAMMA, BoxSubgroup(2, 2, 4)) == 16
    b = BoxSubgroup(3, 5, 15)
    assert index_in(b, b) == 1
    assert index_in(GAMMA, BoxSubgroup(2, 3, 6)) == 36
    with pytest.raises(ContractError):
        index_in(BoxSubgroup(2, 2, 4), GAMMA)


def test_index_matches_coset_enumeration():
    # The number of cosets equals the number of partition classes of a
    # spanned grid divided by nothing: each class is one coset.
    for box in (BoxSubgroup(2, 2, 4), BoxSubgroup(2, 3, 6), BoxSubgroup(1, 4, 2)):
        classes = coset_partition(box)
        assert len(classes) == index_in(GAMMA, box)


def test_index_multiplicative_along_nested_triples():
    rng = random.Random(11)
    for _ in range(100):
        a = BoxSubgroup(rng.choice([1, 2]), rng.choice([1, 3]), 1)
        b = BoxSubgroup(a.Ma * 2, a.Mb * 3, a.Mc * 2)
        c = BoxSubgroup(b.Ma * 3, b.Mb * 2, b.Mc * 6)
        assert index_in(a, c) == index_in(a, b) * index_in(b, c)


def test_core_examples():
    assert BoxSubgroup(2, 2, 4).core() == BoxSubgroup(4, 4, 4)
    assert BoxSubgroup(2, 3, 6).core() == BoxSubgroup(6, 6, 6)
    assert BoxSubgroup(2, 4, 4).core() == BoxSubgroup(4, 4, 4)


def test_core_properties():
    rng = random.Random(13)
    for _ in range(100):
        ma, mb = rng.randrange(1, 13), rng.randrange(1, 13)
        divisors = [d for d in range(1, 13) if (ma * mb) % d == 0]
        box = BoxSubgroup(ma, mb, rng.choice(divisors))
        c = box.core()
        assert box.contains_box(c)
        assert c.core() == c
        assert relative_core(GAMMA, box) == c


def test_relative_core_examples():
    assert relative_core(GAMMA, BoxSubgroup(2, 2, 4)) == BoxSubgroup(4, 4, 4)
    assert relative_core(BoxSubgroup(2, 3, 6), BoxSubgroup(4, 9, 36)) == BoxSubgroup(12, 18, 36)
    b = BoxSubgroup(6, 36, 36)
    assert relative_core(b, b) == b


def test_relative_core_sandwich():
    rng = random.Random(17)
    for _ in range(100):
        ma, mb = rng.randrange(1, 7), rng.randrange(1, 7)
        divisors = [d for d in range(1, 7) if (ma * mb) % d == 0]
        outer = BoxSubgroup(ma, mb, rng.choice(divisors))
        inner = BoxSubgroup(outer.Ma * 2, outer.Mb * 3, outer.Mc * 6)
        rc = relative_core(outer, inner)
        assert inner.contains_box(rc)
        assert rc.contains_box(inner.core())
        assert inner.core() == relative_core(GAMMA, inner)


def test_relative_core_definition_by_enumeration():
    # Direct check of the defining property on a small case: every
    # outer-conjugate of a member stays in inner, and the excluded
    # generator fails it.
    outer, inner = BoxSubgroup(2, 3, 6), BoxSubgroup(4, 9, 36)
    rc = relative_core(outer, inner)
    member = HeisenbergElement(rc.Ma, rc.Mb, rc.Mc)
    for x in range(0, 72, outer.Ma):
        for y in range(0, 72, outer.Mb):
            h = HeisenbergElement(x, y, 0)
            assert inner.contains(member.conjugate_by(h))
    outside = HeisenbergElement(inner.Ma, 0, 0)  # (4,0,0): in inner, not in rc
    assert inner.contains(outside) and not rc.contains(outside)
    assert any(
        not inner.contains(outside.conjugate_by(HeisenbergElement(x, y, 0)))
        for x in range(0, 72, outer.Ma)
        for y in range(0, 72, outer.Mb)
    )


def test_normality_examples():
    for box, normal in ((BoxSubgroup(4, 4, 4), True), (BoxSubgroup(2, 2, 4), False),
                        (BoxSubgroup(6, 6, 6), True)):
        assert (box.core() == box) == normal


def test_normality_is_core_fixed_point():
    rng = random.Random(19)
    for _ in range(50):
        ma, mb = rng.randrange(1, 13), rng.randrange(1, 13)
        divisors = [d for d in range(1, 13) if (ma * mb) % d == 0]
        box = BoxSubgroup(ma, mb, rng.choice(divisors))
        # normal exactly when conjugation's shear x*b - y*a stays in Mc*Z
        assert (box.Ma % box.Mc == 0 and box.Mb % box.Mc == 0) == (box.core() == box)


# -- text forms ---------------------------------------------------------------


def test_element_round_trip():
    for g in (HeisenbergElement(0, 0, 0), HeisenbergElement(-3, 5, -7), HeisenbergElement(10**9, 0, 1)):
        assert HeisenbergElement.parse(str(g)) == g


def test_box_round_trip():
    for b in (GAMMA, BoxSubgroup(2, 3, 6), BoxSubgroup(12, 18, 36)):
        assert BoxSubgroup.parse(str(b)) == b
    with pytest.raises(ContractError):
        BoxSubgroup.parse("Box(2,3)")
