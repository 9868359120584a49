"""Chains, quotient towers, discriminant levels, Steinitz orders, cosets."""

import copy
import pickle
import random
from itertools import product

import pytest

from nilcantor.errors import ContractError, ResourceError
from nilcantor.heisenberg import GAMMA, BoxSubgroup, HeisenbergElement, index_in
from nilcantor.oracle import coset_orbit, residue_law, subgroup_closure
from nilcantor.primes import SIEVE_CAP
from nilcantor.steinitz import INF, Primes, TreeBranchPrimes, spectra
from nilcantor.towers import (
    ChainSpec,
    CoordSchedule,
    FiniteQuotient,
    IndexedFamily,
    PrimeSchedule,
    builtin_chain,
    ex41,
    ex42,
    parse_chain_config,
    stable_chain,
    wild_chain,
)

from helpers import steinitz_int


# -- schedules and boxes ------------------------------------------------------------


def test_schedule_parameters_are_non_negative_and_default_to_zero():
    default = CoordSchedule()
    assert (default.start, default.base, default.slope) == (0, 0, 0)
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ContractError, match="must be non-negative"):
            CoordSchedule(*args)


def test_schedules_equal_exactly_when_their_exponents_agree_from_level_1():
    # Starts 0 and 1 define one schedule; a zero schedule is zero from any start.
    assert CoordSchedule(0, 2, 1) == CoordSchedule(1, 2, 1)
    assert hash(CoordSchedule(0, 2, 1)) == hash(CoordSchedule(1, 2, 1))
    assert CoordSchedule(5, 0, 0) == CoordSchedule(0, 0, 0) == CoordSchedule(1, 0, 0)
    assert CoordSchedule(1, 2, 1) != CoordSchedule(2, 2, 1)
    assert CoordSchedule(0, 2, 1) != CoordSchedule(2, 2, 1)
    assert CoordSchedule(3, 2, 1) != CoordSchedule(2, 2, 1)
    # A copy keeps the start it was built with.
    for start in (0, 1, 5):
        schedule = CoordSchedule(start)
        for twin in (copy.copy(schedule), pickle.loads(pickle.dumps(schedule))):
            assert twin.start == start


def test_config_chain_starting_at_level_0_equals_the_builtin():
    config = parse_chain_config(
        "prime=2 coord=a slope=1\nprime=2 coord=b slope=1\nprime=2 coord=c slope=2"
    )
    assert config.explicit[0].a.start == 0  # the stored start is the one written
    assert config.explicit == ex41(2).explicit
    assert hash(config.explicit) == hash(ex41(2).explicit)


def test_family_exponents_are_checked_one_by_one():
    for exps in ((-1, 2, 1), (2, -1, 1), (1, 1, -1)):
        with pytest.raises(ContractError, match="must be non-negative"):
            IndexedFamily(Primes(), *exps)
    with pytest.raises(ContractError, match="c exponent exceeds a\\+b"):
        IndexedFamily(Primes(), 1, 1, 3)
    with pytest.raises(ContractError, match="at least one coordinate"):
        IndexedFamily(Primes(), 0, 0, 0)
    IndexedFamily(Primes(), 1, 1, 2)  # c = a + b is allowed
    IndexedFamily(Primes(), 0, 1, 0)


def test_box_at_examples():
    assert ex41(2).box_at(2) == BoxSubgroup(4, 4, 16)
    assert ex42(2, 3).box_at(1) == BoxSubgroup(2, 3, 6)
    assert wild_chain(2, 1).box_at(2) == BoxSubgroup(6, 36, 36)


def test_level_walks_start_at_level_one():
    chain = ex41(2)
    with pytest.raises(ContractError, match="level must be >= 1"):
        chain.box_at(0)
    with pytest.raises(ContractError, match="depth must be >= 1"):
        chain.steinitz_order(0)


def test_wild_chain_matches_product_formulas():
    chain = wild_chain(2, 1)
    qs = (2, 3, 5, 7, 11)
    for level in range(1, 6):
        m = 1
        n = 1
        for q in qs[:level]:
            m *= q
            n *= q * q
        assert chain.box_at(level) == BoxSubgroup(m, n, n)


def test_stable_chain_matches_product_formulas():
    chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
    for level in range(1, 5):
        m = 2 * 3 * 5**level
        n = 4 * 9 * 5**level
        assert chain.box_at(level) == BoxSubgroup(m, n, n)


def test_core_at_examples():
    assert ex41(2).core_at(1) == BoxSubgroup(4, 4, 4)
    chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
    for level in (1, 2, 3):
        n = chain.box_at(level).Mb
        assert chain.core_at(level) == BoxSubgroup(n, n, n)
        assert chain.core_at(level).core() == chain.core_at(level)


def test_chain_descends_properly():
    for chain in (ex41(3), ex42(2, 5), wild_chain(3, 1), stable_chain((2,), (1,), (2,), (3,))):
        for level in range(1, 6):
            outer, inner = chain.box_at(level), chain.box_at(level + 1)
            assert outer.contains_box(inner)
            assert outer != inner


def test_validation_rejects_bad_chains():
    with pytest.raises(ContractError):
        # eventually constant: no slopes, no family
        ChainSpec("flat", (PrimeSchedule(2, a=CoordSchedule(1, 1, 0)),))
    with pytest.raises(ContractError):
        # box condition violated at the prime: c grows faster than a+b
        ChainSpec("badbox", (PrimeSchedule(2, c=CoordSchedule(1, 0, 1)),))
    with pytest.raises(ContractError):
        # duplicate prime
        ChainSpec(
            "dup",
            (
                PrimeSchedule(2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)),
                PrimeSchedule(2, a=CoordSchedule(1, 0, 2), b=CoordSchedule(1, 0, 2), c=CoordSchedule(1, 0, 2)),
            ),
        )
    with pytest.raises(ContractError):
        # family and explicit overlap
        ChainSpec(
            "overlap",
            (PrimeSchedule(2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)),),
            family=IndexedFamily(Primes(), 1, 2, 2),
        )
    with pytest.raises(ContractError):
        stable_chain((2, 3), (1, 1), (2, 2), ())  # no growing prime


def test_trivial_intersection_flag():
    bounded = (
        PrimeSchedule(
            2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 2, 0)
        ),
    )
    with pytest.raises(ContractError):
        ChainSpec("pinched", bounded)
    ChainSpec("pinched", bounded, trivial_intersection=False)  # explicit opt-out


def test_settled_factors_read_the_explicit_slopes_and_the_family():
    rows = (
        PrimeSchedule(2, a=CoordSchedule(1, 0, 1), b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 2, 0)),
        PrimeSchedule(3, a=CoordSchedule(2, 1, 0), b=CoordSchedule(1, 0, 1), c=CoordSchedule(2, 1, 0)),
    )
    chain = ChainSpec("pinched", rows, trivial_intersection=False)
    assert [chain.settled_factors(x) for x in "abc"] == [None, None, ((2, 2), (3, 1))]
    family = IndexedFamily(Primes(exclude=(2, 3)), 1, 0, 1)
    chain = ChainSpec("pinched", rows, family, trivial_intersection=False)
    assert [chain.settled_factors(x) for x in "abc"] == [None, None, None]
    chain = ChainSpec("pinched", rows, IndexedFamily(Primes(exclude=(2, 3)), 0, 1, 0), False)
    assert chain.settled_factors("c") == ((2, 2), (3, 1))


def test_wild_chain_rejects_degenerate_exponents():
    with pytest.raises(ContractError):
        wild_chain(2, 2)
    with pytest.raises(ContractError):
        wild_chain(1, 0)


def test_built_in_chains_refuse_their_exponents_by_name():
    with pytest.raises(ContractError, match="need 1 <= r < n"):
        wild_chain(2, 0)
    with pytest.raises(ContractError, match="need 1 <= r <= n"):
        stable_chain((2,), (0,), (1,), (3,))


def test_wild_chain_checks_a_given_enumeration_against_its_growing_primes():
    chain = wild_chain(2, 1, pi_inf=(5,), enumeration=Primes(exclude=(5,)))
    assert [s.prime for s in chain.schedules(3)] == [2, 3, 5, 7]
    with pytest.raises(ContractError, match="family enumeration must exclude 5"):
        wild_chain(2, 1, pi_inf=(5,), enumeration=Primes())


def test_wild_chain_with_infinite_part_excludes_it_from_family():
    chain = wild_chain(2, 1, pi_inf=(5,))
    assert [s.prime for s in chain.explicit] == [5]
    assert chain.family.primes.index_of(5) is None
    assert [s.prime for s in chain.schedules(3)] == [2, 3, 5, 7]
    order = chain.steinitz_order(3)
    assert order.limit.multiplicity(5) is INF
    assert order.limit.multiplicity(7) == 5
    sp = spectra(order.limit, 11)
    assert sp.pi_inf.primes == (5,) and sp.pi_inf.complete
    assert sp.pi_f.primes == (2, 3, 7, 11) and not sp.pi_f.complete


# -- quotients ------------------------------------------------------------------------


def test_quotient_orders():
    assert ex42(2, 3).quotient_at(1).order == 216
    assert ex41(2).quotient_at(1).order == 64
    q = FiniteQuotient(9, 9, 9)  # one-prime component shape
    assert q.order == 9**3
    assert FiniteQuotient(1, 1, 1).order == 1  # the trivial quotient Gamma/Gamma
    # the moduli are the core's, coordinate by coordinate
    skew = ChainSpec(
        "skew", (PrimeSchedule(2, CoordSchedule(1, 0, 2), CoordSchedule(1, 0, 1), CoordSchedule(1, 0, 1)),)
    )
    core = skew.core_at(2)
    assert core == BoxSubgroup(16, 4, 4)
    assert skew.quotient_at(2) == FiniteQuotient(core.Ma, core.Mb, core.Mc)


def test_quotient_moduli_must_be_positive():
    for moduli in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ContractError, match="must be positive"):
            FiniteQuotient(*moduli)


def test_quotient_requires_normal_moduli():
    with pytest.raises(ContractError):
        FiniteQuotient(2, 2, 4)


def test_connecting_map_is_surjective_homomorphism():
    # the connecting map Q_{l+1} -> Q_l is the target's residue reduction
    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1)):
        for level in (1, 2):
            source, target = chain.core_at(level + 1), chain.core_at(level)
            assert source.Ma % target.Ma == source.Mb % target.Mb == source.Mc % target.Mc == 0
            _, source_mul, _ = residue_law(source)
            reduce, mul, _ = residue_law(target)
            rng = random.Random(29)
            moduli = (source.Ma, source.Mb, source.Mc)
            for _ in range(1000):
                x = tuple(rng.randrange(m) for m in moduli)
                y = tuple(rng.randrange(m) for m in moduli)
                assert reduce(source_mul(x, y)) == mul(reduce(x), reduce(y))
            # surjective: coordinatewise reduction hits every target triple
            img = {
                reduce((a, b, c))
                for a in range(target.Ma)
                for b in range(target.Mb)
                for c in range(target.Mc)
            }
            assert len(img) == target.index()


def test_connecting_map_example_and_section():
    # element (4,0,0) of the level-2 quotient reduces to (4,0,0) at level 1
    chain = ex42(2, 3)
    source_reduce, _, _ = residue_law(chain.core_at(2))
    reduce, _, _ = residue_law(chain.core_at(1))
    assert reduce((4, 0, 0)) == (4 % 6, 0, 0) == (4, 0, 0)
    # the coordinate section is a one-sided inverse on generator images
    for g in chain.box_at(1).generators():
        assert reduce(source_reduce(g)) == reduce(g)


def test_quotient_subgroup_holds_exactly_its_lattice():
    # A box between Gamma and a core names the subgroup of the quotient
    # whose residues lie on its lattice, of order its index over the core.
    # Lattices no image of a chain's box takes: la != lb, and lc below C.
    core = BoxSubgroup(4, 6, 2)
    for lattice in ((2, 3, 1), (4, 2, 2), (1, 6, 1), (2, 1, 2)):
        sub = BoxSubgroup(*lattice)
        members = {
            x for x in product(range(4), range(6), range(2)) if sub.contains(HeisenbergElement(*x))
        }
        la, lb, lc = lattice
        assert members == set(product(range(0, 4, la), range(0, 6, lb), range(0, 2, lc)))
        assert members == subgroup_closure(core, sub.generators())
        assert index_in(sub, core) == len(members)


def test_quotient_subgroup_order_divides_ambient():
    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1)):
        for level in (1, 2, 3):
            core = chain.core_at(level)
            assert core.index() % index_in(chain.box_at(level), core) == 0
            for depth in (level, level + 1):
                img = chain.stable_image(level, depth)
                assert core.index() % index_in(img, core) == 0
                closure = subgroup_closure(core, chain.box_at(depth).generators())
                assert index_in(img, core) == len(closure)
                assert all(img.contains(HeisenbergElement(*x)) for x in closure)


# -- discriminant levels ---------------------------------------------------------------


def _discriminant_order(chain, level):
    """|D_level|: D_level = Gamma_level/C_level is the box Gamma_level over the core."""
    return index_in(chain.box_at(level), chain.core_at(level))


def test_discriminant_orders_examples():
    assert _discriminant_order(ex41(2), 1) == 4
    assert _discriminant_order(ex42(2, 3), 1) == 6
    chain = stable_chain((2, 3), (1, 1), (2, 2), (5,))
    assert _discriminant_order(chain, 1) == 6  # prod q_i^(n_i - r_i)


def test_discriminant_closure_confirms_lattice_order():
    for chain, level in ((ex41(2), 1), (ex42(2, 3), 1), (ex42(2, 3), 2)):
        closure = subgroup_closure(chain.core_at(level), chain.box_at(level).generators())
        assert len(closure) == _discriminant_order(chain, level)


def test_discriminant_level_scaling():
    chain = ex41(2)
    for level in range(1, 5):
        assert _discriminant_order(chain, level) == 2 ** (2 * level)


def test_lagrange_identity_at_finite_levels():
    for chain in (ex41(2), ex42(2, 3)):
        for level in range(1, 5):
            q = chain.quotient_at(level).order
            x = index_in(GAMMA, chain.box_at(level))
            d = _discriminant_order(chain, level)
            assert q == x * d


def test_lagrange_identity_as_steinitz_product():
    chain = ex42(2, 3)
    for level in range(1, 5):
        q = steinitz_int(chain.quotient_at(level).order)
        x = steinitz_int(index_in(GAMMA, chain.box_at(level)))
        d = steinitz_int(_discriminant_order(chain, level))
        assert x.product(d) == q


def test_stable_image_examples():
    chain = ex42(2, 3)
    core = chain.core_at(1)
    assert index_in(ex41(2).stable_image(1, 2), ex41(2).core_at(1)) == 1
    img = chain.stable_image(1, 2)
    assert img == BoxSubgroup(2, 3, 6) and index_in(img, core) == 6
    closure = subgroup_closure(core, chain.box_at(2).generators())
    assert len(closure) == 6
    # Z/3 x Z/2 shape: the a-part has order 3, the b-part order 2
    assert {x[0] for x in closure} == {0, 2, 4}
    assert {x[1] for x in closure} == {0, 3}
    # the image of D_1 in Q_1 is D_1 itself: Gamma_1 over the core
    assert chain.stable_image(1, 1) == chain.box_at(1)


def test_stable_image_descending():
    for chain in (ex41(2), ex42(2, 3), wild_chain(2, 1)):
        core = chain.core_at(1)
        for d in (1, 2, 3):
            big = chain.stable_image(1, d)
            small = chain.stable_image(1, d + 1)
            assert index_in(big, core) % index_in(small, core) == 0
            assert big.contains_box(small)
            assert all(big.contains(g) for g in chain.box_at(d + 1).generators())


# -- Steinitz orders --------------------------------------------------------------------


def test_steinitz_order_ex41():
    order = ex41(2).steinitz_order(4)
    assert order.raw.as_int() == 2**16
    assert order.limit.multiplicity(2) is INF
    assert order.limit.infinite_primes == (2,)


def test_steinitz_order_ex42():
    order = ex42(2, 3).steinitz_order(3)
    assert order.limit.multiplicity(2) is INF
    assert order.limit.multiplicity(3) is INF
    assert order.raw.as_int() == 6**6  # (pq)^{2l} at l = 3


def test_steinitz_order_stable_family():
    order = stable_chain((2, 3), (1, 1), (2, 2), (5,)).steinitz_order(3)
    # q-exponents r + 2n = 5, certified limit 5^inf
    assert order.limit.multiplicity(2) == 5
    assert order.limit.multiplicity(3) == 5
    assert order.limit.multiplicity(5) is INF
    assert order.limit.infinite_primes == (5,)


def test_steinitz_order_wild_family():
    order = wild_chain(2, 1).steinitz_order(4)
    assert order.raw.multiplicity(7) == 5
    assert order.raw.multiplicity(11) == 0  # not activated by depth 4
    assert order.limit.multiplicity(11) == 5  # but certified in the limit
    assert order.limit.infinite_primes == ()
    sp = spectra(order.limit, 7)
    assert sp.pi_f.primes == (2, 3, 5, 7)
    assert not sp.pi_f.complete
    assert sp.pi_inf.primes == ()


def test_steinitz_order_refuses_family_primes_past_the_sieve():
    # Past the sieve cap every family prime would pay a prime count, so the
    # order refuses before it walks the levels.  Branch 1 activates the
    # prime 2,699,453 at level 17 and 5,694,137 at level 18.
    branch = wild_chain(2, 1, enumeration=TreeBranchPrimes(1, 1))
    assert branch.family.prime_at(17) <= SIEVE_CAP < branch.family.prime_at(18)
    assert branch.steinitz_order(17).raw.multiplicity(branch.family.prime_at(17)) == 5
    for chain, depth in ((branch, 18), (wild_chain(2, 1), 400_000)):
        with pytest.raises(ResourceError, match=f"depth {depth} .* sieve cap {SIEVE_CAP}"):
            chain.steinitz_order(depth)


def test_steinitz_order_growth_is_monotone():
    chain = ex42(2, 3)
    prev = None
    for depth in range(1, 5):
        raw = chain.steinitz_order(depth).raw.as_int()
        if prev is not None:
            assert raw % prev == 0 and raw > prev
        prev = raw


# -- coset spaces ------------------------------------------------------------------------


def test_canonical_examples():
    box = BoxSubgroup(2, 2, 4)
    assert box.canonical(HeisenbergElement(3, 5, 7)) == (1, 1, 3)
    assert box.canonical(HeisenbergElement(0, 0, 0)) == (0, 0, 0)
    assert BoxSubgroup(2, 3, 6).canonical(HeisenbergElement(2, 3, 6)) == (0, 0, 0)


def test_canonical_constant_on_cosets():
    rng = random.Random(31)
    box = BoxSubgroup(2, 3, 6)
    for _ in range(300):
        g = HeisenbergElement(rng.randrange(-30, 30), rng.randrange(-30, 30), rng.randrange(-30, 30))
        h = HeisenbergElement(2 * rng.randrange(-5, 6), 3 * rng.randrange(-5, 6), 6 * rng.randrange(-5, 6))
        assert box.canonical(g) == box.canonical(g * h)


def test_act_examples_and_axioms():
    box = BoxSubgroup(2, 2, 4)
    assert box.act(HeisenbergElement(1, 0, 0), (0, 0, 0)) == (1, 0, 0)
    # act takes exactly the canonical representatives, coordinate by coordinate
    g, corner = HeisenbergElement(1, 0, 0), BoxSubgroup(2, 3, 6)
    assert corner.act(g, (1, 2, 5)) == corner.canonical(g * HeisenbergElement(1, 2, 5))
    for i, m in enumerate((2, 3, 6)):
        for bad in (-1, m):
            x = [0, 0, 0]
            x[i] = bad
            with pytest.raises(ContractError, match="not a canonical representative"):
                corner.act(g, tuple(x))
    rng = random.Random(37)
    for _ in range(1000):
        g = HeisenbergElement(rng.randrange(-9, 9), rng.randrange(-9, 9), rng.randrange(-9, 9))
        h = HeisenbergElement(rng.randrange(-9, 9), rng.randrange(-9, 9), rng.randrange(-9, 9))
        x = box.canonical(HeisenbergElement(rng.randrange(0, 8), rng.randrange(0, 8), rng.randrange(0, 8)))
        assert box.act(g, box.act(h, x)) == box.act(g * h, x)


def test_orbit_is_whole_space():
    box = BoxSubgroup(2, 2, 4)
    gens = [HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0), HeisenbergElement(0, 0, 1)]
    orbit = coset_orbit(box, gens)
    assert len(orbit) == 16 == box.index()


def test_basepoint_stabilizer_is_the_box():
    box = BoxSubgroup(2, 3, 6)
    rng = random.Random(41)
    for _ in range(500):
        g = HeisenbergElement(rng.randrange(-18, 18), rng.randrange(-18, 18), rng.randrange(-18, 18))
        fixes = box.act(g, (0, 0, 0)) == (0, 0, 0)
        assert fixes == box.contains(g)


# -- chain configs --------------------------------------------------------------------------


EX41_CONFIG = """
label=ex41-by-hand
prime=2 coord=a start=1 base=0 slope=1
prime=2 coord=b start=1 base=0 slope=1
prime=2 coord=c start=1 base=0 slope=2
"""

WILD_CONFIG = """
label=wild-by-hand
family qi coord=a start=i base=1 slope=0
family qi coord=b start=i base=2 slope=0
family qi coord=c start=i base=2 slope=0
"""


def test_parse_chain_config_explicit():
    chain = parse_chain_config(EX41_CONFIG)
    assert chain.label == "ex41-by-hand"
    for level in (1, 2, 3):
        assert chain.box_at(level) == ex41(2).box_at(level)


def test_parse_chain_config_family():
    chain = parse_chain_config(WILD_CONFIG)
    for level in (1, 2, 3):
        assert chain.box_at(level) == wild_chain(2, 1).box_at(level)


def test_parse_chain_config_errors_carry_position():
    with pytest.raises(ContractError) as err:
        parse_chain_config("prime=2 coord=q start=1 base=0 slope=1")
    assert "line 1" in str(err.value)


def test_parse_chain_config_strips_comments_and_keeps_whole_labels():
    commented = parse_chain_config(
        "# ex41 with comments\n"
        + EX41_CONFIG.replace("label=ex41-by-hand", "label=ex41=by-hand  # keeps its '='")
        .replace("slope=2", "slope=2  # c grows twice as fast")
    )
    assert commented.label == "ex41=by-hand"
    assert commented.explicit == parse_chain_config(EX41_CONFIG).explicit


def test_parse_chain_config_defaults_start_base_and_slope_to_zero():
    chain = parse_chain_config(
        "prime=2 coord=a slope=1\n"
        "prime=2 coord=b start=1 slope=1\n"
        "prime=2 coord=c start=1 base=0 slope=2\n"
        "prime=3 coord=b start=1 base=1\n"
    )
    assert chain.explicit[1] == PrimeSchedule(3, b=CoordSchedule(1, 1, 0))
    for level in (1, 2, 3):
        assert chain.box_at(level) == BoxSubgroup(2**level, 3 * 2**level, 4**level)


def test_parse_chain_config_family_exponents_default_to_zero():
    cases = (
        (("b base=2", "c base=1"), (0, 2, 1)),
        (("a base=2", "c base=1"), (2, 0, 1)),
        (("a base=1", "b base=1"), (1, 1, 0)),
    )
    for lines, exponents in cases:
        config = "".join(f"family qi coord={x} start=i slope=0\n" for x in lines)
        chain = parse_chain_config(config + "trivial_intersection=false\n")
        assert chain.family == IndexedFamily(Primes(), *exponents)


@pytest.mark.parametrize(
    "line, message",
    [
        ("trivial_intersection=true=x", "expected true or false"),
        ("family qi coord=a start=i base=1=2 slope=0", "family lines need base=<int>"),
        ("prime=2 coord=a start=1 base=1=2 slope=0", "bad schedule line"),
    ],
)
def test_parse_chain_config_refuses_a_value_with_a_second_equals_sign(line, message):
    with pytest.raises(ContractError, match=message):
        parse_chain_config(line)


def test_builtin_chain_dispatch():
    branch = TreeBranchPrimes(1, 1)
    cases = [
        (("ex41", {"p": 2}), ex41(2)),
        (("ex42", {"p": 5, "q": 3}), ex42(5, 3)),
        (
            ("stable", {"pi_f": (2, 3), "r": (1, 1), "n": (2, 2), "pi_inf": (7, 5)}),
            stable_chain((2, 3), (1, 1), (2, 2), (7, 5)),
        ),
        (("wild", {"n": 2, "r": 1}), wild_chain(2, 1)),
        (("wild", {"n": 3, "r": 1, "pi_inf": (7, 2)}), wild_chain(3, 1, (7, 2))),
        (("wild", {"n": 2, "r": 1, "enumeration": branch}), wild_chain(2, 1, enumeration=branch)),
    ]
    for (name, params), expected in cases:
        assert builtin_chain(name, **params) == expected
    assert builtin_chain("ex41", p=2).label == "ex41(p=2)"
    # the growing primes enter in increasing order, whatever order pi_inf lists
    growing = builtin_chain("wild", n=3, r=1, pi_inf=(7, 2)).explicit
    assert [(s.prime, s.a.start) for s in growing] == [(2, 1), (7, 2)]
    with pytest.raises(ContractError):
        builtin_chain("nope")
