"""The prime layer against sympy, which serves here as a test-only oracle."""

import random

import pytest

from nilcantor import primes
from nilcantor.errors import ContractError, ResourceError
from nilcantor.primes import (
    MR_BASES,
    MR_BOUND,
    SIEVE_CAP,
    isprime,
    nth_prime,
    primepi,
)

sympy = pytest.importorskip("sympy")

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)
STRONG_PSEUDOPRIMES = (
    3215031751,  # to bases 2, 3, 5, 7
    3825123056546413051,  # to bases 2, 3, ..., 23
)


def test_isprime_matches_sympy_below_1e5():
    expected = list(sympy.primerange(2, 10**5))
    assert [n for n in range(-3, 10**5) if isprime(n)] == expected
    # the sieve may already cover these; the test above the sieve must agree too
    assert [n for n in range(2, 10**5) if primes._miller_rabin(n)] == expected


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES
                         + (2**61 - 1, 2**61 + 1, 10**18 + 9, MR_BOUND - 2))
def test_isprime_matches_sympy_beyond_the_sieve(n):
    assert isprime(n) == primes._miller_rabin(n) == sympy.isprime(n)


@pytest.mark.parametrize("value", [2.0, 3.0, True, False, "7", None, 7 + 0j])
def test_isprime_of_a_non_integer_is_false(value):
    assert isprime(value) is False


def test_primepi_matches_sympy():
    rng = random.Random(11)
    below = [0, 1, 2, 3, 4, 100, SIEVE_CAP - 2, SIEVE_CAP - 1]
    below += [rng.randrange(SIEVE_CAP) for _ in range(30)]
    above = [SIEVE_CAP, SIEVE_CAP + 1, 25117217, 10**8 + 7]
    above += [rng.randrange(SIEVE_CAP, 4 * 10**7) for _ in range(5)]
    for x in below + above:
        assert primepi(x) == sympy.primepi(x), x


def test_nth_prime_matches_sympy_up_to_the_tree_branch_codes():
    # test_almost_disjoint_counts_and_intersections reaches codes near 2^21
    rng = random.Random(13)
    below_cap = primepi(SIEVE_CAP - 1)
    indices = [1, 2, 3, 1000, below_cap - 1, below_cap, below_cap + 1, below_cap + 2,
               2**20, 2**20 + 2**19, 2**21 - 1]
    indices += [rng.randrange(1, 2**21) for _ in range(5)]
    for n in indices:
        assert nth_prime(n) == sympy.prime(n), n
    # consecutive indices across the sieve cap and several windows above it
    run = [nth_prime(n) for n in range(below_cap - 10, below_cap + 25000)]
    assert run == list(sympy.primerange(run[0], run[-1] + 1))


def test_nth_prime_on_a_fresh_sieve(monkeypatch):
    # The sieve lives for the process, so the other tests meet it grown.
    # From empty, nth_prime(4) grows it to exactly four primes.
    expected = list(sympy.primerange(2, 200))
    for n in range(1, len(expected) + 1):
        monkeypatch.setattr(primes, "_SIEVE", primes._Sieve())
        assert nth_prime(n) == expected[n - 1], n
    monkeypatch.setattr(primes, "_SIEVE", primes._Sieve())
    assert [primepi(x) for x in range(-3, 200)] == [
        sum(p <= x for p in expected) for x in range(-3, 200)
    ]


@pytest.mark.parametrize(
    "n",
    [
        295949,  # the window starts at 4,182,194, just above the prime 4,182,193
        295950,  # the window starts at the prime 4,182,209
        5801512,  # p_n is the first prime of the second window
    ],
)
def test_nth_prime_counts_up_to_its_window(n, monkeypatch):
    # Above the sieve the count must stop just below the window's start,
    # and a window that ends before p_n hands its count on to the next.
    monkeypatch.setattr(primes._SIEVE, "window", (0, ()))
    assert nth_prime(n) == sympy.prime(n)


def test_caps_refuse_before_any_work(monkeypatch):
    # The caps are where the README puts them: a count up to 2^32 and the
    # 10^8-th prime.  The work past the sieve is replaced by stubs, so a cap
    # moved outward fails fast instead of counting.
    monkeypatch.setattr(primes, "_lucy", lambda x: -x)
    monkeypatch.setattr(primes, "_nth_above_sieve", lambda n: -n)
    limit = primes._SIEVE.limit
    with pytest.raises(ResourceError):
        nth_prime(10**8 + 1)
    with pytest.raises(ResourceError):
        primepi(2**32 + 1)
    for n in (MR_BOUND, MR_BOUND + 2, 10**30):
        with pytest.raises(ResourceError):
            isprime(n)
    assert primes._SIEVE.limit == limit
    assert primepi(2**32) == -(2**32)
    assert nth_prime(10**8) == -(10**8)


def test_mr_bound_is_where_the_bases_fail():
    # The bound is a theorem about the first 13 primes as bases
    # (Sorenson & Webster 2015): the least composite that passes all of
    # them, so guessing there is wrong.
    assert MR_BASES == tuple(sympy.primerange(2, 42))
    assert MR_BOUND == 1287836182261 * 2575672364521
    assert primes._miller_rabin(MR_BOUND)


@pytest.mark.parametrize("call", [lambda: nth_prime(0), lambda: nth_prime(2.0),
                                  lambda: primepi(True)])
def test_bad_arguments_are_contract_violations(call):
    with pytest.raises(ContractError):
        call()
