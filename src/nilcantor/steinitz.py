"""Supernatural (Steinitz) numbers: exact arithmetic, spectra, and types.

A Steinitz number is a formal product  prod_p p^chi(p)  over all primes,
with multiplicities chi(p) in {0, 1, ..., oo}.  Values here are stored as

  * ``finite_part``      -- finitely many explicit primes with finite
                            exponent >= 1,
  * ``infinite_primes``  -- finitely many explicit primes with exponent oo,
  * ``tail``             -- optionally, infinitely many further primes,
                            all carrying the same finite exponent,
                            enumerated from every prime or from one branch
                            of the binary tree.  Orders of chains whose
                            finite spectrum is infinite need this.

The three parts are pairwise disjoint.  All operations are exact: the two
prime sets decide every comparison, so equivalence and the type order
answer for every pair of numbers, and an exponent is reported as oo only
when the caller supplies schedule-level certification (see the towers
module), never by extrapolating finite data.  Product and lcm are
pointwise and take tail-free numbers only; a chain's order is an lcm
taken prime by prime in the towers module, so no caller combines tails.

Two Steinitz numbers are *asymptotically equivalent* when m*xi = m'*xi'
for some positive integers m, m'; concretely, when their multiplicities
agree at all but finitely many primes and their infinite parts agree
everywhere.  Equivalence classes are called types, and carry a partial
order: tau <= tau' when some representatives satisfy chi <= chi'
pointwise, equivalently when pi_inf(xi) is contained in pi_inf(xi') and
chi(p) <= chi'(p) for all but finitely many p.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

from ._value import Value, set_field
from .errors import ContractError, ResourceError
from .primes import SIEVE_CAP, isprime, nth_prime, primepi

__all__ = [
    "INF",
    "SteinitzNumber",
    "PrimeSet",
    "PrimeSpectra",
    "Primes",
    "TreeBranchPrimes",
    "TailSchedule",
    "spectra",
    "asymptotically_equivalent",
    "type_leq",
    "almost_disjoint_spectra",
]


# -- the exponent oo ------------------------------------------------------


class _Infinity:
    """The exponent oo.  `INF` is its one instance and is compared by
    identity; nothing orders or adds it, since product and lcm combine
    finite exponents only and the text form sorts by distinct primes."""

    __slots__ = ()

    def __reduce__(self):
        return "INF"  # copies and pickles are INF itself

    def __repr__(self):
        return "inf"


INF = _Infinity()


def _check_prime(p) -> int:
    if not isprime(p):
        raise ContractError(f"not a prime: {p!r}")
    return p


# -- the two prime sets a tail enumerates ---------------------------------
#
# Every prime (Theorem 1.5's family) and one branch of the binary tree
# (Corollary 1.6).  Each enumerates strictly increasingly with decidable
# membership: `prime(i)` (0-indexed), its inverse `index_of(p)` or None,
# and the identity string `key()` of serialized tails.


class Primes(Value):
    """All primes in increasing order, minus a finite excluded set."""

    __slots__ = ("exclude", "__dict__")  # the __dict__ holds the cached indices

    def __init__(self, exclude: tuple = ()):
        set_field(self, "exclude", tuple(sorted({_check_prime(p) for p in exclude})))

    @functools.cached_property
    def _excluded_indices(self) -> tuple:
        return tuple(primepi(q) for q in self.exclude)

    def prime(self, i: int) -> int:
        # Each excluded prime at or below the candidate moves it one index
        # on; the indices are sorted, so the first one above it ends the scan.
        n = i + 1
        for k in self._excluded_indices:
            if k > n:
                break
            n += 1
        return nth_prime(n)

    def index_of(self, p: int) -> Optional[int]:
        if not isprime(p) or p in self.exclude:
            return None
        before = primepi(p) - 1  # primes strictly below p
        skipped = sum(1 for q in self.exclude if q < p)
        return before - skipped

    def key(self) -> str:
        if not self.exclude:
            return "primes"
        return "primes{excl=%s}" % ",".join(str(q) for q in self.exclude)


def _branch_bits(branch: int, width: int, n: int) -> int:
    """First n bits of the infinite branch word: `branch` in `width` binary
    digits, then zeros forever.  Returned packed as an integer."""
    bits = 0
    for j in range(n):
        bit = (branch >> (width - 1 - j)) & 1 if j < width else 0
        bits = (bits << 1) | bit
    return bits


class TreeBranchPrimes(Value):
    """Primes indexed by the prefixes of one branch of the binary tree.

    A finite 0/1 word w of length n has heap code 2^n + int(w); the set of
    codes of the prefixes of an infinite branch picks out one prime per
    length via the code-th prime.  Two distinct branches share only the
    codes of their common prefix, so the resulting prime sets are pairwise
    almost disjoint: the intersection has fewer elements than the label
    width.
    """

    __slots__ = ("branch", "width")

    def __init__(self, branch: int, width: int):
        if not (width >= 1 and 0 <= branch < 2**width):
            raise ContractError(f"branch {branch} does not fit in width {width}")
        set_field(self, "branch", branch)
        set_field(self, "width", width)

    def _code(self, n: int) -> int:
        return (1 << n) | _branch_bits(self.branch, self.width, n)

    def prime(self, i: int) -> int:
        return nth_prime(self._code(i + 1))

    def index_of(self, p: int) -> Optional[int]:
        if not isprime(p):
            return None
        code = primepi(p)  # p is the code-th prime
        n = code.bit_length() - 1
        if n < 1:
            return None
        if code - (1 << n) != _branch_bits(self.branch, self.width, n):
            return None
        return n - 1

    def key(self) -> str:
        return f"branch{{{self.branch}/{self.width}}}"


def _check_enumeration(primes) -> None:
    if not isinstance(primes, (Primes, TreeBranchPrimes)):
        raise ContractError(f"not a prime set (Primes or TreeBranchPrimes): {primes!r}")


# -- tails -----------------------------------------------------------------


class TailSchedule(Value):
    """Lazily enumerated continuation of a Steinitz number.

    Contributes ``primes.prime(i)`` with multiplicity ``exponent`` for
    every index i >= start.  The pure entry function is index ->
    (prime, exponent); a single shared finite exponent is the only shape
    the chains in this package produce, and keeping it rigid is what makes
    comparisons decidable.
    """

    __slots__ = ("primes", "exponent", "start")

    def __init__(self, primes: Primes | TreeBranchPrimes, exponent: int, start: int = 0):
        _check_enumeration(primes)
        if not (isinstance(exponent, int) and exponent >= 1):
            raise ContractError("tail exponent must be a positive integer")
        if not (isinstance(start, int) and start >= 0):
            raise ContractError("tail start index must be >= 0")
        set_field(self, "primes", primes)
        set_field(self, "exponent", exponent)
        set_field(self, "start", start)

    def member_exponent(self, p: int) -> int:
        i = self.primes.index_of(p)
        return self.exponent if i is not None and i >= self.start else 0

    def iter_upto(self, bound: int) -> Iterator[int]:
        i = self.start
        while True:
            q = self.primes.prime(i)
            if q > bound:
                return
            yield q
            i += 1

    def key(self) -> str:
        return f"{self.primes.key()}^{self.exponent}@{self.start}"


# What a tail enumerates: a base set minus the finite set it drops (its
# enumeration's exclusions and its dropped prefix).  The base is every
# prime or one binary-tree branch, named by its stripped word, so
# branch{0/1} and branch{0/2} are one set.  Distinct branches share
# finitely many primes and a branch misses infinitely many, so the bases
# alone decide whether one tail covers another up to finitely many primes.


def _base(primes: Primes | TreeBranchPrimes) -> str:
    if isinstance(primes, Primes):
        return "primes"
    return "branch " + format(primes.branch, f"0{primes.width}b").rstrip("0")


def _covers(t1: TailSchedule, t2: TailSchedule) -> bool:
    """Whether t1 enumerates all but finitely many primes of t2."""
    base = _base(t1.primes)
    return base == "primes" or base == _base(t2.primes)


# -- the numbers -----------------------------------------------------------


class SteinitzNumber(Value):
    """An exact supernatural number; see the module docstring.

    ``finite_part`` is stored as sorted ((prime, exponent), ...) pairs and
    ``infinite_primes`` as a sorted tuple of primes.
    """

    __slots__ = ("finite_part", "infinite_primes", "tail")

    def __init__(
        self,
        finite_part: tuple = (),
        infinite_primes: tuple = (),
        tail: Optional[TailSchedule] = None,
    ):
        fp = {}
        for p, e in dict(finite_part).items():
            _check_prime(p)
            if not (isinstance(e, int) and e >= 1):
                raise ContractError(f"finite exponent of {p} must be >= 1, got {e!r}")
            fp[p] = e
        inf = tuple(sorted({_check_prime(p) for p in infinite_primes}))
        overlap = set(fp) & set(inf)
        if overlap:
            raise ContractError(f"primes with both finite and infinite exponent: {overlap}")
        if tail is not None:
            for p in list(fp) + list(inf):
                if tail.member_exponent(p):
                    raise ContractError(f"prime {p} appears explicitly and in the tail")
        set_field(self, "finite_part", tuple(sorted(fp.items())))
        set_field(self, "infinite_primes", inf)
        set_field(self, "tail", tail)

    # -- queries -----------------------------------------------------------

    def multiplicity(self, p: int):
        _check_prime(p)
        fp = dict(self.finite_part)
        if p in fp:
            return fp[p]
        if p in self.infinite_primes:
            return INF
        if self.tail is not None:
            return self.tail.member_exponent(p)
        return 0

    def as_int(self) -> int:
        """The value, when it is an ordinary integer."""
        if self.infinite_primes or self.tail is not None:
            raise ContractError("not a finite integer")
        n = 1
        for p, e in self.finite_part:
            n *= p**e
        return n

    # -- arithmetic ----------------------------------------------------------

    def product(self, other: "SteinitzNumber") -> "SteinitzNumber":
        return _combine(self, other, lambda e1, e2: e1 + e2)

    def lcm(self, other: "SteinitzNumber") -> "SteinitzNumber":
        return _combine(self, other, max)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        factors = []
        entries = [(p, e) for p, e in self.finite_part]
        entries += [(p, INF) for p in self.infinite_primes]
        for p, e in sorted(entries):
            if e == 1:
                factors.append(str(p))
            else:
                factors.append(f"{p}^{e}")
        text = " * ".join(factors) if factors else "1"
        if self.tail is not None:
            text += f" [tail:{self.tail.key()}]"
        return text


def _combine(x1: SteinitzNumber, x2: SteinitzNumber, op) -> SteinitzNumber:
    """Pointwise exponent combination of two tail-free numbers, oo absorbing."""
    if x1.tail is not None or x2.tail is not None:
        raise ContractError("product and lcm take numbers without a tail")
    infs = set(x1.infinite_primes) | set(x2.infinite_primes)
    fp1, fp2 = dict(x1.finite_part), dict(x2.finite_part)
    fp = {p: op(fp1.get(p, 0), fp2.get(p, 0)) for p in (fp1.keys() | fp2.keys()) - infs}
    return SteinitzNumber(fp, infs)


# -- spectra ---------------------------------------------------------------


class PrimeSet(Value):
    """An enumerated prime set plus whether the enumeration is the whole set."""

    __slots__ = ("primes", "complete")

    def __init__(self, primes: tuple, complete: bool):
        set_field(self, "primes", primes)
        set_field(self, "complete", complete)

    def __str__(self) -> str:
        body = "{" + ",".join(str(p) for p in self.primes) + "}"
        return body if self.complete else body + " (truncated)"


class PrimeSpectra(Value):
    """Classification of the primes of a Steinitz number up to a bound:
    the finite-exponent primes `pi_f` and the infinite ones `pi_inf`,
    which are disjoint.  `pi` is their union, complete when both are."""

    __slots__ = ("pi_f", "pi_inf", "enumeration_bound")
    _shown = ("pi",) + __slots__

    def __init__(self, pi_f: PrimeSet, pi_inf: PrimeSet, enumeration_bound: int):
        if set(pi_f.primes) & set(pi_inf.primes):
            raise ContractError("pi_f and pi_inf must be disjoint")
        set_field(self, "pi_f", pi_f)
        set_field(self, "pi_inf", pi_inf)
        set_field(self, "enumeration_bound", enumeration_bound)

    @property
    def pi(self) -> PrimeSet:
        return PrimeSet(
            tuple(sorted(self.pi_f.primes + self.pi_inf.primes)),
            self.pi_f.complete and self.pi_inf.complete,
        )


def spectra(xi: SteinitzNumber, bound: int) -> PrimeSpectra:
    if bound < 2:
        raise ContractError("bound must be at least 2")
    if xi.tail is not None and bound > SIEVE_CAP:
        raise ResourceError(f"listing tail primes up to {bound} exceeds the sieve cap {SIEVE_CAP}")
    finite = sorted(p for p, _ in xi.finite_part if p <= bound)
    if xi.tail is not None:
        finite = sorted(set(finite) | set(xi.tail.iter_upto(bound)))
    infinite = [p for p in xi.infinite_primes if p <= bound]
    f_complete = xi.tail is None and all(p <= bound for p, _ in xi.finite_part)
    i_complete = all(p <= bound for p in xi.infinite_primes)
    return PrimeSpectra(
        PrimeSet(tuple(finite), f_complete), PrimeSet(tuple(infinite), i_complete), bound
    )


# -- asymptotic equivalence and the type order ------------------------------


def _below_almost_everywhere(x1: SteinitzNumber, x2: SteinitzNumber) -> bool:
    """Whether chi1 <= chi2 at all but finitely many primes.  Explicit
    primes are finitely many, so only the tails matter."""
    t1, t2 = x1.tail, x2.tail
    if t1 is None or t2 is None:
        return t1 is None
    return _covers(t2, t1) and t1.exponent <= t2.exponent


def asymptotically_equivalent(x1: SteinitzNumber, x2: SteinitzNumber) -> bool:
    """Exact test for m*xi1 = m'*xi2 with finite m, m'.

    Characterization: chi1 <= chi2 and chi2 <= chi1 at all but finitely
    many primes, and identical infinite parts.  Explicit primes and the
    dropped primes that only one tail enumerates are finitely many, so
    they never change the answer and are not inspected.
    """
    if set(x1.infinite_primes) != set(x2.infinite_primes):
        return False
    return _below_almost_everywhere(x1, x2) and _below_almost_everywhere(x2, x1)


def type_leq(x1: SteinitzNumber, x2: SteinitzNumber) -> bool:
    """The type order: some representatives satisfy chi1 <= chi2 pointwise.

    Decidable criterion: pi_inf(xi1) a subset of pi_inf(xi2), and
    chi1(p) <= chi2(p) for all but finitely many p.  Multiplying a
    representative by an integer only raises finitely many finite
    exponents, which absorbs any finite set of violations.
    """
    if not set(x1.infinite_primes) <= set(x2.infinite_primes):
        return False
    return _below_almost_everywhere(x1, x2)


# -- almost-disjoint infinite prime sets -------------------------------------


def almost_disjoint_spectra(count: int) -> list[TreeBranchPrimes]:
    """`count` infinite prime sets, pairwise sharing fewer than `width`
    elements (width = bits needed to label the branches).

    Deterministic: set k follows the binary-tree branch whose first bits
    spell k, so any count >= 1 is served.  Each result is a decidable
    membership predicate on primes (and on prime indices via the heap
    codes of branch prefixes).
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    width = max(1, (count - 1).bit_length())
    return [TreeBranchPrimes(branch=k, width=width) for k in range(count)]
