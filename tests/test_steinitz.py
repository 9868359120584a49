"""Supernatural arithmetic: pointwise laws, equivalence, spectra, tails."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcantor.errors import ContractError, ResourceError
from nilcantor.steinitz import (
    INF,
    Primes,
    PrimeSet,
    SteinitzNumber,
    TailSchedule,
    TreeBranchPrimes,
    almost_disjoint_spectra,
    asymptotically_equivalent,
    spectra,
    type_leq,
)
from nilcantor.primes import SIEVE_CAP
from nilcantor.towers import IndexedFamily, PrimeSchedule, wild_chain

from helpers import steinitz_int

PRIMES = (2, 3, 5, 7, 11, 13)


def random_explicit(rng, allow_infinite=True):
    fp = {}
    for p in PRIMES:
        if rng.random() < 0.4:
            fp[p] = rng.randrange(1, 6)
    infs = ()
    if allow_infinite:
        infs = tuple(p for p in PRIMES if p not in fp and rng.random() < 0.2)
    return SteinitzNumber(fp, infinite_primes=infs)


# -- multiplicity --------------------------------------------------------------


def test_multiplicity_examples():
    xi = SteinitzNumber({3: 1}, infinite_primes=(2,))
    assert xi.multiplicity(3) == 1
    assert xi.multiplicity(5) == 0
    assert xi.multiplicity(2) is INF
    # INF is compared by identity, so a copy must be INF itself
    assert copy.deepcopy(INF) is INF and pickle.loads(pickle.dumps(INF)) is INF


def test_multiplicity_rejects_nonprime():
    with pytest.raises(ContractError):
        SteinitzNumber().multiplicity(4)
    with pytest.raises(ContractError):
        SteinitzNumber({6: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: PrimeSchedule(2.0),
        lambda: PrimeSchedule(True),
        lambda: Primes(exclude=(True,)),
        lambda: SteinitzNumber({True: 1}),
    ],
    ids=["schedule-float", "schedule-bool", "exclude-bool", "number-bool"],
)
def test_non_integer_primes_are_contract_violations(build):
    with pytest.raises(ContractError):
        build()


def test_branch_labels_fit_their_width():
    for branch, width in ((0, 1), (1, 1), (3, 2)):
        TreeBranchPrimes(branch, width)
    for branch, width in ((0, 0), (-1, 1), (2, 1), (4, 2)):
        with pytest.raises(ContractError, match="does not fit"):
            TreeBranchPrimes(branch, width)


def test_tail_exponents_are_positive_and_starts_default_to_zero():
    assert TailSchedule(Primes(), 1).start == 0
    with pytest.raises(ContractError, match="positive integer"):
        TailSchedule(Primes(), 0)
    with pytest.raises(ContractError, match="must be >= 0"):
        TailSchedule(Primes(), 1, -1)


def test_disjointness_invariants():
    with pytest.raises(ContractError, match="must be >= 1"):
        SteinitzNumber({2: 0})
    with pytest.raises(ContractError):
        SteinitzNumber({2: 1}, infinite_primes=(2,))
    with pytest.raises(ContractError, match="appears explicitly and in the tail"):
        SteinitzNumber(infinite_primes=(3,), tail=TailSchedule(Primes(), 1))
    with pytest.raises(ContractError):
        SteinitzNumber({3: 1}, tail=TailSchedule(Primes(), 1, 0))
    # Excluding the explicit prime from the tail makes it fine.
    SteinitzNumber({3: 1}, tail=TailSchedule(Primes(exclude=(3,)), 1, 0))


# -- product and lcm ------------------------------------------------------------


def test_product_examples():
    a = SteinitzNumber({2: 2, 3: 1})
    b = SteinitzNumber({2: 1, 5: 1})
    assert a.product(b) == SteinitzNumber({2: 3, 3: 1, 5: 1})
    two_inf = SteinitzNumber(infinite_primes=(2,))
    assert two_inf.product(SteinitzNumber({2: 4})) == two_inf


def test_lcm_examples():
    a = SteinitzNumber({2: 3, 3: 1})
    b = SteinitzNumber({2: 1}, infinite_primes=(5,))
    assert a.lcm(b) == SteinitzNumber({2: 3, 3: 1}, infinite_primes=(5,))
    xi = SteinitzNumber({2: 2}, infinite_primes=(7,))
    assert xi.lcm(xi) == xi


def test_pointwise_laws_on_seeded_numbers():
    rng = random.Random(101)
    for _ in range(300):
        x, y = random_explicit(rng), random_explicit(rng)
        prod, join = x.product(y), x.lcm(y)
        for p in PRIMES:
            ex, ey = x.multiplicity(p), y.multiplicity(p)
            if ex is INF or ey is INF:
                assert prod.multiplicity(p) is INF
                assert join.multiplicity(p) is INF
            else:
                assert prod.multiplicity(p) == ex + ey
                assert join.multiplicity(p) == max(ex, ey)
        assert x.product(y) == y.product(x)
        assert x.lcm(y) == y.lcm(x)


def test_associativity_on_seeded_numbers():
    rng = random.Random(103)
    for _ in range(100):
        x, y, z = (random_explicit(rng) for _ in range(3))
        assert x.product(y).product(z) == x.product(y.product(z))
        assert x.lcm(y).lcm(z) == x.lcm(y.lcm(z))


def test_integer_embedding():
    assert steinitz_int(360) == SteinitzNumber({2: 3, 3: 2, 5: 1})
    assert steinitz_int(1) == SteinitzNumber()
    assert steinitz_int(360).as_int() == 360
    rng = random.Random(105)
    for _ in range(50):
        a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        assert steinitz_int(a).product(steinitz_int(b)).as_int() == a * b


def test_product_and_lcm_refuse_a_tail_on_either_side():
    tailed = SteinitzNumber({3: 1}, tail=TailSchedule(Primes(exclude=(3,)), 2))
    plain = SteinitzNumber({2: 1})
    for x, y in ((tailed, plain), (plain, tailed), (tailed, tailed)):
        for combine in (x.product, x.lcm):
            with pytest.raises(ContractError, match="numbers without a tail"):
                combine(y)


# -- spectra ---------------------------------------------------------------------


def test_spectra_examples():
    sp = spectra(SteinitzNumber(infinite_primes=(2, 3)), 10)
    assert sp.pi_inf.primes == (2, 3) and sp.pi_inf.complete
    assert sp.pi_f.primes == () and sp.pi_f.complete
    sp1 = spectra(SteinitzNumber(), 100)
    assert sp1.pi.primes == ()
    assert sp1.pi.complete
    # a prime at the bound is listed, and completes its set
    xi = SteinitzNumber({7: 1}, infinite_primes=(5,))
    assert spectra(xi, 7).pi_f == PrimeSet((7,), True)
    assert spectra(xi, 5).pi_inf == PrimeSet((5,), True)
    assert spectra(xi, 5).pi_f == PrimeSet((), False)
    with pytest.raises(ContractError, match="at least 2"):
        spectra(xi, 1)
    # the repr shows the union first, then the stored fields
    assert repr(spectra(SteinitzNumber(infinite_primes=(2,)), 3)) == (
        "PrimeSpectra(pi=PrimeSet(primes=(2,), complete=True), "
        "pi_f=PrimeSet(primes=(), complete=True), "
        "pi_inf=PrimeSet(primes=(2,), complete=True), enumeration_bound=3)"
    )


def test_spectra_truncation_flags():
    tailed = SteinitzNumber(tail=TailSchedule(Primes(), 5, 0))
    sp = spectra(tailed, 7)
    assert sp.pi_f.primes == (2, 3, 5, 7)
    assert not sp.pi_f.complete
    assert sp.pi_inf.complete
    big = SteinitzNumber({101: 1})
    assert not spectra(big, 10).pi_f.complete


def test_spectra_refuses_a_tail_past_the_sieve_cap():
    tailed = SteinitzNumber(tail=TailSchedule(Primes(), 1, 295_944))  # the last 3 sieved primes
    assert spectra(tailed, SIEVE_CAP).pi_f.primes == (4194277, 4194287, 4194301)
    with pytest.raises(ResourceError, match=f"{SIEVE_CAP + 1} exceeds the sieve cap {SIEVE_CAP}"):
        spectra(tailed, SIEVE_CAP + 1)
    # without a tail nothing is enumerated, so any bound is fine
    assert spectra(SteinitzNumber({101: 1}), 10**17).pi_f.complete


# -- asymptotic equivalence --------------------------------------------------------


def test_equivalence_examples():
    a = SteinitzNumber({3: 1}, infinite_primes=(2,))
    b = SteinitzNumber({3: 2}, infinite_primes=(2,))
    assert asymptotically_equivalent(a, b)
    c = SteinitzNumber(infinite_primes=(2,))
    d = SteinitzNumber(infinite_primes=(2, 3))
    assert not asymptotically_equivalent(c, d)


def test_equivalence_all_primes_versus_odd_primes():
    every = SteinitzNumber(tail=TailSchedule(Primes(), 1, 0))
    odd = SteinitzNumber(tail=TailSchedule(Primes(), 1, 1))
    assert asymptotically_equivalent(every, odd)


def test_equivalence_is_equivalence_relation():
    rng = random.Random(107)
    numbers = [random_explicit(rng) for _ in range(60)]
    for x in numbers[:20]:
        assert asymptotically_equivalent(x, x)
    for x in numbers:
        for y in numbers[:10]:
            assert asymptotically_equivalent(x, y) == asymptotically_equivalent(y, x)
    # transitivity on a seeded sample
    for x in numbers[:15]:
        for y in numbers[:15]:
            for z in numbers[:15]:
                if asymptotically_equivalent(x, y) and asymptotically_equivalent(y, z):
                    assert asymptotically_equivalent(x, z)


def test_equivalence_preserves_infinite_spectrum():
    rng = random.Random(109)
    for _ in range(200):
        x, y = random_explicit(rng), random_explicit(rng)
        if asymptotically_equivalent(x, y):
            assert set(x.infinite_primes) == set(y.infinite_primes)


def test_equivalence_against_multiplier_oracle():
    # For explicit numbers, equivalence means m*x = m'*y for some finite
    # multipliers; search them exhaustively on small cases.
    rng = random.Random(111)
    multipliers = [steinitz_int(m) for m in range(1, 2**6)]

    def oracle(x, y):
        for m in multipliers:
            for mp in multipliers:
                if m.product(x) == mp.product(y):
                    return True
        return False

    for _ in range(40):
        fp1 = {p: rng.randrange(1, 3) for p in (2, 3) if rng.random() < 0.7}
        fp2 = {p: rng.randrange(1, 3) for p in (2, 3) if rng.random() < 0.7}
        infs = (5,) if rng.random() < 0.5 else ()
        x = SteinitzNumber(fp1, infinite_primes=infs)
        y = SteinitzNumber(fp2, infinite_primes=infs)
        assert asymptotically_equivalent(x, y) == oracle(x, y)


def test_comparisons_answer_and_foreign_prime_sets_are_refused():
    # Explicit primes and one-sided dropped primes are finitely many, so
    # no prime bound is needed, however large they are.
    assert asymptotically_equivalent(SteinitzNumber({101: 2}), SteinitzNumber({101: 3}))
    branch = TreeBranchPrimes(0, 1)
    pairs = (
        # one-sided primes 19 and 53
        (TailSchedule(branch, 1, 0), TailSchedule(branch, 2, 4)),
        # one-sided prime 101
        (TailSchedule(Primes(exclude=(101,)), 1, 1), TailSchedule(Primes(), 2, 0)),
    )
    for low, high in pairs:
        x = SteinitzNumber(tail=low)
        y = SteinitzNumber(tail=high)
        assert type_leq(x, y)
        assert not type_leq(y, x)
        assert not asymptotically_equivalent(x, y)
    # Every prime and the tree branches are the only prime sets, so every
    # comparison answers; any other set is refused where it would enter.
    foreign = (2, 5, 11, 17)
    for enter in (
        lambda: TailSchedule(foreign, 1),
        lambda: IndexedFamily(foreign, 1, 2, 2),
        lambda: wild_chain(2, 1, pi_inf=(3,), enumeration=foreign),
    ):
        with pytest.raises(ContractError, match="not a prime set"):
            enter()


# -- the type order -----------------------------------------------------------------


def test_type_leq_examples():
    a = SteinitzNumber(infinite_primes=(2,))
    b = SteinitzNumber(infinite_primes=(2, 3))
    assert type_leq(a, b)
    assert not type_leq(b, a)
    x = SteinitzNumber({2: 5, 3: 1})
    y = SteinitzNumber({2: 1, 3: 1})
    assert type_leq(x, y)


def test_type_leq_brute_force_multiplier_search():
    # multiply the right side by 2^4 <= 2^6: pointwise domination appears
    x = SteinitzNumber({2: 5, 3: 1})
    y = SteinitzNumber({2: 1, 3: 1})

    def leq(e1, e2):
        return e2 is INF or (e1 is not INF and e1 <= e2)

    def dominated(u, v):
        return all(leq(u.multiplicity(p), v.multiplicity(p)) for p in (2, 3, 5, 7))

    found = any(
        dominated(x, steinitz_int(m).product(y)) for m in range(1, 2**6)
    )
    assert found and type_leq(x, y)


def test_type_leq_reflexive_transitive_and_divisibility():
    rng = random.Random(113)
    numbers = [random_explicit(rng) for _ in range(30)]
    for x in numbers:
        assert type_leq(x, x)
    for x in numbers[:10]:
        for y in numbers[:10]:
            for z in numbers[:10]:
                if type_leq(x, y) and type_leq(y, z):
                    assert type_leq(x, z)
    for x in numbers[:10]:
        bigger = x.product(steinitz_int(360))
        assert type_leq(x, bigger)


def test_type_leq_with_tails():
    small = SteinitzNumber(tail=TailSchedule(Primes(), 1, 0))
    large = SteinitzNumber(tail=TailSchedule(Primes(), 3, 0))
    assert type_leq(small, large)
    assert not type_leq(large, small)
    assert not type_leq(small, SteinitzNumber())
    assert type_leq(SteinitzNumber(), small)


def test_branch_below_all_primes():
    branch = SteinitzNumber(tail=TailSchedule(TreeBranchPrimes(0, 1), 1))
    every = SteinitzNumber(tail=TailSchedule(Primes(), 1))
    assert type_leq(branch, every)
    assert not type_leq(every, branch)
    assert not asymptotically_equivalent(branch, every)


def test_branches_with_one_stripped_word_are_one_set():
    # 1, 10 and 100 followed by zeros are the same infinite branch.
    numbers = [
        SteinitzNumber(tail=TailSchedule(TreeBranchPrimes(b, w), 1, start))
        for b, w, start in ((1, 1, 0), (2, 2, 1), (4, 3, 2))
    ]
    for x in numbers:
        for y in numbers:
            assert asymptotically_equivalent(x, y)


# -- tails against multiplicities ----------------------------------------------

SAMPLE_FROM, SAMPLE_SIZE = 6, 4  # tail indices past every drop and shared prefix


@st.composite
def tailed_numbers(draw):
    tail = None
    kind = draw(st.sampled_from(("primes", "branch", None)))
    if kind == "primes":
        enumeration = Primes(tuple(draw(st.lists(st.sampled_from((2, 3, 5, 7)), unique=True))))
    elif kind == "branch":
        width = draw(st.integers(1, 3))
        enumeration = TreeBranchPrimes(draw(st.integers(0, 2**width - 1)), width)
    if kind is not None:
        tail = TailSchedule(enumeration, draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    fp, infs = {}, []
    for p in PRIMES:
        if tail is None or not tail.member_exponent(p):
            e = draw(st.sampled_from((0, 0, 0, 1, 2, INF)))
            if e is INF:
                infs.append(p)
            elif e:
                fp[p] = e
    return SteinitzNumber(fp, infs, tail)


def sampled_primes(*numbers):
    """Each tail's own primes past its drops, where the finitely many
    exceptions of either number cannot be."""
    return {
        x.tail.primes.prime(i)
        for x in numbers
        if x.tail is not None
        for i in range(SAMPLE_FROM, SAMPLE_FROM + SAMPLE_SIZE)
    }


def below(x, y, primes):
    return all(
        y.multiplicity(p) is INF
        or (x.multiplicity(p) is not INF and x.multiplicity(p) <= y.multiplicity(p))
        for p in primes
    )


@settings(derandomize=True, max_examples=150, deadline=1000)
@given(tailed_numbers(), tailed_numbers())
def test_tails_agree_with_multiplicities(x, y):
    far = sampled_primes(x, y)
    inf_x, inf_y = set(x.infinite_primes), set(y.infinite_primes)
    assert type_leq(x, y) == (inf_x <= inf_y and below(x, y, far))
    assert asymptotically_equivalent(x, y) == (
        inf_x == inf_y and below(x, y, far) and below(y, x, far)
    )


# -- almost-disjoint spectra ----------------------------------------------------------


def test_almost_disjoint_counts_and_intersections():
    sets = almost_disjoint_spectra(2)
    a = {sets[0].prime(i) for i in range(10)}
    b = {sets[1].prime(i) for i in range(10)}
    inter = a & b
    assert len(inter) <= 10
    # the intersection stabilizes: deeper enumeration adds nothing
    a20 = {sets[0].prime(i) for i in range(20)}
    b20 = {sets[1].prime(i) for i in range(20)}
    assert a20 & b20 == inter


def test_almost_disjoint_single_set():
    (s,) = almost_disjoint_spectra(1)
    ps = [s.prime(i) for i in range(8)]
    assert len(set(ps)) == 8
    assert ps == sorted(ps)
    assert all(s.index_of(p) == i for i, p in enumerate(ps))


def test_almost_disjoint_pairwise_inequivalent():
    sets = almost_disjoint_spectra(3)
    numbers = [SteinitzNumber(tail=TailSchedule(s, 1)) for s in sets]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not asymptotically_equivalent(numbers[i], numbers[j])


def test_almost_disjoint_membership_is_decidable():
    sets = almost_disjoint_spectra(4)
    for s in sets:
        for i in range(6):
            p = s.prime(i)
            assert s.index_of(p) == i
        for other in sets:
            if other is s:
                continue
            shared = {s.prime(i) for i in range(8)} & {other.prime(i) for i in range(8)}
            assert len(shared) < 2  # width-2 labels share at most the root prefix


def test_almost_disjoint_width_is_the_label_length():
    for count, width in ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3)):
        assert almost_disjoint_spectra(count) == [TreeBranchPrimes(k, width) for k in range(count)]


def test_almost_disjoint_count_contract():
    with pytest.raises(ContractError):
        almost_disjoint_spectra(0)


# -- text form --------------------------------------------------------------------------


def test_text_form_examples():
    assert str(SteinitzNumber()) == "1"
    assert str(SteinitzNumber({2: 3, 3: 1}, infinite_primes=(5,))) == "2^3 * 3 * 5^inf"
    tailed = SteinitzNumber({3: 2}, tail=TailSchedule(Primes(exclude=(3,)), 5, 2))
    assert str(tailed) == "3^2 [tail:primes{excl=3}^5@2]"
    branch = SteinitzNumber(tail=TailSchedule(TreeBranchPrimes(2, 3), 1, 0))
    assert str(branch) == "1 [tail:branch{2/3}^1@0]"


def test_round_trip_text_form():
    # a number rebuilt from its stored parts is the same number with the same text form
    cases = [
        SteinitzNumber(),
        SteinitzNumber({2: 3, 3: 1}, infinite_primes=(5,)),
        SteinitzNumber({3: 2}, tail=TailSchedule(Primes(exclude=(3,)), 5, 2)),
        SteinitzNumber(tail=TailSchedule(TreeBranchPrimes(2, 3), 1, 0)),
    ]
    for xi in cases:
        rebuilt = SteinitzNumber(xi.finite_part, xi.infinite_primes, xi.tail)
        assert rebuilt == xi and hash(rebuilt) == hash(xi)
        assert str(rebuilt) == str(xi)
