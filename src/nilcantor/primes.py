"""Exact prime arithmetic: the one place the package asks prime questions.

A sieve of Eratosthenes is kept for the process and extended by doubling,
to less than twice as far as a call needs and never past ``SIEVE_CAP``.
Above the sieve:

  * ``isprime`` runs Miller-Rabin with the first 13 prime bases, which is
    exact below ``MR_BOUND`` (Sorenson & Webster 2015); from ``MR_BOUND``
    on it raises :class:`~nilcantor.errors.ResourceError` instead of
    guessing;
  * ``primepi`` counts with the Lucy_Hedgehog recursion in O(x^(3/4)),
    up to ``COUNT_CAP``;
  * ``nth_prime`` counts up to a lower bound of p_n and sieves a window
    forward from it, up to index ``NTH_CAP``.  Tree-branch codes grow like
    2^i, so it never lists the primes it skips.

Each cap is checked before any work is done.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_right
from itertools import compress
from math import isqrt, log

from .errors import ContractError, ResourceError

SIEVE_CAP = 1 << 22  # largest sieve kept: 4 MiB of flags, 295,947 primes
COUNT_CAP = 1 << 32  # largest x primepi counts to (about 2 s of Lucy_Hedgehog)
NTH_CAP = 10**8  # largest index nth_prime finds; p_NTH_CAP < COUNT_CAP
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981  # least strong pseudoprime to MR_BASES
_WINDOW = 1 << 18  # numbers per segmented-sieve window above the sieve


def _segment(lo: int, hi: int, base) -> bytearray:
    """Primality flags of lo..hi-1; `base` must hold every prime <= sqrt(hi-1),
    and hi <= lo*lo, so that each prime p it strikes with lies below lo and
    its multiples from lo on are all composite."""
    flags = bytearray([1]) * (hi - lo)
    for p in base:
        if p * p >= hi:
            break
        start = -(-lo // p) * p - lo
        flags[start::p] = bytes(len(range(start, hi - lo, p)))
    return flags


class _Sieve:
    """Flags and the sorted primes below `limit`, and the last window of
    consecutive primes above the sieve: (index of its first prime, primes)."""

    def __init__(self):
        self.limit = 2
        self.flags = bytearray(2)
        self.primes = array("I")
        self.window = (0, ())

    def grow(self, need: int) -> None:
        """Extend the sieve past `need`, or to SIEVE_CAP if that is less."""
        while self.limit <= need and self.limit < SIEVE_CAP:
            # Doubling keeps the segment's square root below the limit, so
            # the primes already sieved are its base primes.
            hi = min(2 * self.limit, SIEVE_CAP)
            seg = _segment(self.limit, hi, self.primes)
            self.flags += seg
            self.primes.extend(compress(range(self.limit, hi), seg))
            self.limit = hi


_SIEVE = _Sieve()


def _check_int(n, name: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ContractError(f"{name} must be an integer, got {n!r}")
    return n


def isprime(n) -> bool:
    """Exact primality; False for anything that is not an int (bool included)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    if n < _SIEVE.limit:
        return bool(_SIEVE.flags[n])
    if n >= MR_BOUND:
        raise ResourceError(
            f"primality of {n} is not decidable by the {len(MR_BASES)}-base "
            f"Miller-Rabin test, which is exact only below {MR_BOUND}"
        )
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """True when n >= 2 is a strong probable prime to every base in MR_BASES."""
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=256)
def _lucy(x: int) -> int:
    """pi(x) by the Lucy_Hedgehog recursion: after sieving by p, small[v]
    and large[i] count the numbers in [2, v] and [2, x//i] with no prime
    factor below p, plus the primes below p."""
    r = isqrt(x)
    small = list(range(-1, r))  # small[v] = v - 1
    large = [0] + [x // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is not prime
        below = small[p - 1]
        p2 = p * p
        for i in range(1, min(r, x // p2) + 1):
            d = i * p
            large[i] -= (large[d] if d <= r else small[x // d]) - below
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - below
    return large[1]


def primepi(x: int) -> int:
    """The number of primes <= x."""
    x = _check_int(x, "x")
    if x < SIEVE_CAP:
        _SIEVE.grow(x)
        return bisect_right(_SIEVE.primes, x)
    if x > COUNT_CAP:
        raise ResourceError(f"counting primes up to {x} exceeds the cap {COUNT_CAP}")
    return _lucy(x)


def _nth_above_sieve(n: int) -> int:
    first, window = _SIEVE.window
    if not first <= n < first + len(window):
        # Dusart (1999): p_n >= n*(ln n + ln ln n - 1) for n >= 2.  The
        # float only places the window; the count and the sieve are exact.
        lo = int(n * (log(n) + log(log(n)) - 1)) - 2
        first = primepi(lo - 1) + 1  # the index of the first prime >= lo
        while True:
            hi = lo + _WINDOW
            _SIEVE.grow(isqrt(hi))
            window = tuple(compress(range(lo, hi), _segment(lo, hi, _SIEVE.primes)))
            if n < first + len(window):
                break
            first, lo = first + len(window), hi
        _SIEVE.window = (first, window)  # the next indices are usually here
    return window[n - first]


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed: nth_prime(1) == 2."""
    if type(n) is int and 0 < n <= len(_SIEVE.primes):
        return _SIEVE.primes[n - 1]  # the hot path: the sieve already holds it
    n = _check_int(n, "n")
    if n < 1:
        raise ContractError(f"prime index must be >= 1, got {n}")
    if n > NTH_CAP:
        raise ResourceError(f"prime index {n} exceeds the cap {NTH_CAP}")
    while len(_SIEVE.primes) < n and _SIEVE.limit < SIEVE_CAP:
        _SIEVE.grow(_SIEVE.limit)
    if n <= len(_SIEVE.primes):
        return _SIEVE.primes[n - 1]
    return _nth_above_sieve(n)
