"""Supernatural (Steinitz) numbers: exact arithmetic, spectra, and types.

A Steinitz number is a formal product  prod_p p^chi(p)  over all primes,
with multiplicities chi(p) in {0, 1, ..., oo}.  Values here are stored as

  * ``finite_part``      -- finitely many explicit primes with finite
                            exponent >= 1,
  * ``infinite_primes``  -- finitely many explicit primes with exponent oo,
  * ``tail``             -- optionally, a deterministic enumeration of
                            infinitely many further primes, all carrying
                            the same finite exponent.  Orders of chains
                            whose finite spectrum is infinite need this.

The three parts are pairwise disjoint.  All operations are exact: when a
question cannot be settled from the representation (e.g. comparing two
unrelated black-box tails) the functions raise
:class:`~nilcantor.errors.UndecidableError` instead of guessing, and an
exponent is reported as oo only when the caller supplies schedule-level
certification (see the towers module), never by extrapolating finite data.

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
import re
from typing import Iterator, Optional

from ._value import Value, set_field
from .errors import ContractError, UndecidableError
from .primes import factorize, isprime, nth_prime, primepi

__all__ = [
    "INF",
    "SteinitzNumber",
    "PrimeSet",
    "PrimeSpectra",
    "PrimeEnumeration",
    "Primes",
    "TreeBranchPrimes",
    "TailSchedule",
    "ONE",
    "spectra",
    "asymptotically_equivalent",
    "type_leq",
    "almost_disjoint_spectra",
]


# -- the exponent oo ------------------------------------------------------


@functools.total_ordering
class _Infinity:
    """Exact sentinel for exponent oo: greater than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __lt__(self, other):
        return False  # nothing exceeds oo

    def __hash__(self):
        return hash("steinitz-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"


INF = _Infinity()

Exponent = object  # int >= 0 or INF; kept loose on purpose


def _check_prime(p) -> int:
    if not isprime(p):
        raise ContractError(f"not a prime: {p!r}")
    return p


# -- prime enumerations for tails -----------------------------------------


class PrimeEnumeration:
    """A deterministic, strictly increasing enumeration of infinitely many
    primes with decidable membership.  Subclasses are value objects."""

    def prime(self, i: int) -> int:
        """The i-th enumerated prime (0-indexed)."""
        raise NotImplementedError

    def index_of(self, p: int) -> Optional[int]:
        """Index of p in the enumeration, or None if p is not enumerated."""
        raise NotImplementedError

    def key(self) -> str:
        """Canonical identity string (used in serialized tails)."""
        raise NotImplementedError

    def excluding(self, p: int) -> Optional["PrimeEnumeration"]:
        """Same enumeration with p removed, when expressible; else None."""
        return None


class Primes(PrimeEnumeration, Value):
    """All primes in increasing order, minus a finite excluded set."""

    __slots__ = ("exclude",)  # PrimeEnumeration gives the cache a __dict__

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

    def excluding(self, p: int) -> "Primes":
        return Primes(self.exclude + (p,))


def _branch_bits(branch: int, width: int, n: int) -> int:
    """First n bits of the infinite branch word: `branch` in `width` binary
    digits, then zeros forever.  Returned packed as an integer."""
    bits = 0
    for j in range(n):
        bit = (branch >> (width - 1 - j)) & 1 if j < width else 0
        bits = (bits << 1) | bit
    return bits


class TreeBranchPrimes(PrimeEnumeration, Value):
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


def _enumeration_from_key(key: str) -> PrimeEnumeration:
    if key == "primes":
        return Primes()
    m = re.fullmatch(r"primes\{excl=([\d,]+)\}", key)
    if m:
        return Primes(tuple(int(q) for q in m.group(1).split(",")))
    m = re.fullmatch(r"branch\{(\d+)/(\d+)\}", key)
    if m:
        return TreeBranchPrimes(int(m.group(1)), int(m.group(2)))
    raise ContractError(f"unknown prime enumeration: {key!r}")


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

    def __init__(self, primes: PrimeEnumeration, exponent: int, start: int = 0):
        if not (isinstance(exponent, int) and exponent >= 1):
            raise ContractError("tail exponent must be a positive integer")
        if not (isinstance(start, int) and start >= 0):
            raise ContractError("tail start index must be >= 0")
        set_field(self, "primes", primes)
        set_field(self, "exponent", exponent)
        set_field(self, "start", start)

    def entry(self, i: int) -> tuple[int, int]:
        if i < self.start:
            raise ContractError(f"tail starts at index {self.start}, got {i}")
        return (self.primes.prime(i), self.exponent)

    def member_exponent(self, p: int) -> int:
        i = self.primes.index_of(p)
        return self.exponent if i is not None and i >= self.start else 0

    def dropped_prefix(self) -> tuple[int, ...]:
        """The enumerated primes below the start index."""
        return tuple(self.primes.prime(i) for i in range(self.start))

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

    @classmethod
    def parse(cls, text: str) -> "TailSchedule":
        m = re.fullmatch(r"(.+)\^(\d+)@(\d+)", text)
        if m is None:
            raise ContractError(f"not a tail schedule: {text!r}")
        return cls(_enumeration_from_key(m.group(1)), int(m.group(2)), int(m.group(3)))


# Relations between two tails, as far as they can be certified.
_TAILS_AGREE = "agree-up-to-finite"  # same set & exponent beyond a finite set
_TAILS_DIFFER = "differ-at-infinitely-many"
_TAILS_UNKNOWN = "unknown"


def _tail_relation(t1: TailSchedule, t2: TailSchedule):
    """Classify how the multiplicity functions of two tails compare beyond
    every finite horizon.  Returns (relation, finite exceptional primes)."""
    e1, e2 = t1.primes, t2.primes
    same_base = e1 == e2
    if isinstance(e1, Primes) and isinstance(e2, Primes):
        # Semantically both are "all primes minus a finite dropped set".
        dropped1 = set(e1.exclude) | set(t1.dropped_prefix())
        dropped2 = set(e2.exclude) | set(t2.dropped_prefix())
        exceptional = tuple(sorted(dropped1 ^ dropped2))
        if t1.exponent == t2.exponent:
            return _TAILS_AGREE, exceptional
        return _TAILS_DIFFER, exceptional
    if isinstance(e1, TreeBranchPrimes) and isinstance(e2, TreeBranchPrimes):
        if same_base:
            if t1.exponent == t2.exponent:
                lo, hi = min(t1.start, t2.start), max(t1.start, t2.start)
                return _TAILS_AGREE, tuple(e1.prime(i) for i in range(lo, hi))
            return _TAILS_DIFFER, ()
        # Distinct branches: each set is infinite, the intersection is
        # finite, so the symmetric difference is infinite.
        return _TAILS_DIFFER, ()
    if (isinstance(e1, Primes) and isinstance(e2, TreeBranchPrimes)) or (
        isinstance(e1, TreeBranchPrimes) and isinstance(e2, Primes)
    ):
        # A branch set misses infinitely many primes (all other branches).
        return _TAILS_DIFFER, ()
    return _TAILS_UNKNOWN, ()


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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "SteinitzNumber":
        return cls(tuple(sorted(factorize(n).items())))

    @classmethod
    def of(cls, finite=None, infinite=(), tail=None) -> "SteinitzNumber":
        return cls(tuple(sorted((finite or {}).items())), tuple(infinite), tail)

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

    def explicit_primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for p, _ in self.finite_part} | set(self.infinite_primes)))

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

    @classmethod
    def parse(cls, text: str) -> "SteinitzNumber":
        text = text.strip()
        tail = None
        m = re.fullmatch(r"(.*?)\s*\[tail:(.+)\]", text)
        if m:
            text, tail = m.group(1).strip(), TailSchedule.parse(m.group(2))
        fp, infs = {}, []
        if text != "1":
            for factor in text.split("*"):
                fm = re.fullmatch(r"\s*(\d+)(?:\^(inf|\d+))?\s*", factor)
                if fm is None:
                    raise ContractError(f"bad factor {factor!r} in {text!r}")
                p = int(fm.group(1))
                e = fm.group(2)
                if e == "inf":
                    infs.append(p)
                else:
                    fp[p] = int(e) if e else 1
        return cls(tuple(sorted(fp.items())), tuple(infs), tail)


ONE = SteinitzNumber()


def _combine(x1: SteinitzNumber, x2: SteinitzNumber, op) -> SteinitzNumber:
    """Pointwise exponent combination with oo absorbing.

    Tails are combined only when their enumerations are identical;
    anything looser would require deciding set equality of black boxes.
    """
    fp: dict[int, int] = dict(x1.finite_part)
    for p, e in x2.finite_part:
        fp[p] = op(fp[p], e) if p in fp else e
    infs = set(x1.infinite_primes) | set(x2.infinite_primes)
    for p in infs:
        fp.pop(p, None)

    t1, t2 = x1.tail, x2.tail
    tail = None
    if t1 is not None and t2 is not None:
        if t1.primes != t2.primes:
            raise ContractError(
                "cannot combine numbers with unrelated tail schedules "
                f"({t1.primes.key()} vs {t2.primes.key()})"
            )
        lo, hi = min(t1.start, t2.start), max(t1.start, t2.start)
        # Indices in [lo, hi) belong to only one side; materialize them.
        wide, _narrow = (t1, t2) if t1.start <= t2.start else (t2, t1)
        for i in range(lo, hi):
            p = wide.primes.prime(i)
            e = op(wide.exponent, fp.pop(p, 0))
            if p not in infs and e:
                fp[p] = e
        tail = TailSchedule(t1.primes, op(t1.exponent, t2.exponent), hi)
    elif t1 is not None or t2 is not None:
        tail = t1 if t1 is not None else t2

    if tail is not None:
        # Explicit primes that the tail also enumerates would break the
        # uniform tail exponent; push them into the exclusion set when the
        # enumeration supports it.
        for p in sorted(set(fp) | infs):
            e_tail = tail.member_exponent(p)
            if not e_tail:
                continue
            narrowed = tail.primes.excluding(p)
            if narrowed is None:
                raise ContractError(
                    f"prime {p} collides with tail {tail.key()} and the "
                    "enumeration cannot exclude it"
                )
            # Re-anchor the start: dropped-prefix primes become explicit.
            kept_prefix = [
                q for q in tail.dropped_prefix() if q != p
            ]
            tail = TailSchedule(narrowed, tail.exponent, len(kept_prefix))
            if p not in infs:
                fp[p] = op(fp.get(p, 0), e_tail)

    return SteinitzNumber(
        tuple(sorted((p, e) for p, e in fp.items() if e)), tuple(sorted(infs)), tail
    )


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
    """Classification of the primes of a Steinitz number up to a bound."""

    __slots__ = ("pi", "pi_f", "pi_inf", "enumeration_bound")

    def __init__(self, pi: PrimeSet, pi_f: PrimeSet, pi_inf: PrimeSet, enumeration_bound: int):
        if set(pi.primes) != set(pi_f.primes) | set(pi_inf.primes):
            raise ContractError("pi must be the union of pi_f and pi_inf")
        if set(pi_f.primes) & set(pi_inf.primes):
            raise ContractError("pi_f and pi_inf must be disjoint")
        set_field(self, "pi", pi)
        set_field(self, "pi_f", pi_f)
        set_field(self, "pi_inf", pi_inf)
        set_field(self, "enumeration_bound", enumeration_bound)


def spectra(xi: SteinitzNumber, bound: int) -> PrimeSpectra:
    if bound < 2:
        raise ContractError("bound must be at least 2")
    finite = sorted(p for p, _ in xi.finite_part if p <= bound)
    if xi.tail is not None:
        finite = sorted(set(finite) | set(xi.tail.iter_upto(bound)))
    infinite = [p for p in xi.infinite_primes if p <= bound]
    f_complete = xi.tail is None and all(p <= bound for p, _ in xi.finite_part)
    i_complete = all(p <= bound for p in xi.infinite_primes)
    return PrimeSpectra(
        pi=PrimeSet(tuple(sorted(set(finite) | set(infinite))), f_complete and i_complete),
        pi_f=PrimeSet(tuple(finite), f_complete),
        pi_inf=PrimeSet(tuple(infinite), i_complete),
        enumeration_bound=bound,
    )


# -- asymptotic equivalence and the type order ------------------------------


def _beyond_analysis(x1: SteinitzNumber, x2: SteinitzNumber):
    """How the two multiplicity functions compare beyond every finite set.

    Returns (kind, exceptional primes), where kind is one of
    'equal'      -- chi1 = chi2 outside the exceptional primes,
    'left-only'  -- chi1 >= 1 = 1+chi2 at infinitely many primes,
    'right-only' -- symmetric,
    'differ'     -- chi1 != chi2 at infinitely many primes, certified,
    'left-below' -- chi1 < chi2 at infinitely many primes, chi1 <= chi2 beyond
                    the exceptional set (same-set tails, exponents e1 < e2),
    'right-below'-- symmetric,
    or raises UndecidableError.
    """
    t1, t2 = x1.tail, x2.tail
    if t1 is None and t2 is None:
        return "equal", ()
    if t1 is not None and t2 is None:
        return "left-only", ()
    if t1 is None and t2 is not None:
        return "right-only", ()
    rel, exceptional = _tail_relation(t1, t2)
    if rel == _TAILS_AGREE:
        return "equal", exceptional
    if rel == _TAILS_DIFFER:
        # Same underlying set up to finitely many primes, but different
        # uniform exponents: one side sits strictly below the other at
        # infinitely many shared primes, and weakly beyond the exceptions.
        same_set = t1.primes == t2.primes or (
            isinstance(t1.primes, Primes) and isinstance(t2.primes, Primes)
        )
        if same_set and t1.exponent != t2.exponent:
            kind = "left-below" if t1.exponent < t2.exponent else "right-below"
            return kind, exceptional
        return "differ", ()
    raise UndecidableError(
        f"tails {t1.key()} and {t2.key()} are unrelated; no schedule-level "
        "proof of agreement beyond the inspected range"
    )


def _inspection_set(x1, x2, extra=()) -> tuple[int, ...]:
    ps = set(x1.explicit_primes()) | set(x2.explicit_primes()) | set(extra)
    return tuple(sorted(ps))


def asymptotically_equivalent(x1: SteinitzNumber, x2: SteinitzNumber, bound: int) -> bool:
    """Exact test for m*xi1 = m'*xi2 with finite m, m'.

    Characterization: equal multiplicities at all but finitely many
    primes, and identical infinite parts.  `bound` must cover every prime
    at which the representations can disagree by a finite amount; when a
    certified answer needs primes beyond it, UndecidableError names them.
    """
    if bound < 2:
        raise ContractError("bound must be at least 2")
    if set(x1.infinite_primes) != set(x2.infinite_primes):
        return False
    kind, exceptional = _beyond_analysis(x1, x2)
    if kind in ("left-only", "right-only", "differ", "left-below", "right-below"):
        return False  # infinitely many finite-exponent disagreements, certified
    needed = _inspection_set(x1, x2, exceptional)
    over = [p for p in needed if p > bound]
    if over:
        raise UndecidableError(
            f"undecidable with bound {bound}: primes {over} must be inspected"
        )
    # Finitely many candidate disagreements, all inspected: equivalent.
    return True


def type_leq(x1: SteinitzNumber, x2: SteinitzNumber, bound: int) -> bool:
    """The type order: some representatives satisfy chi1 <= chi2 pointwise.

    Decidable criterion: pi_inf(xi1) a subset of pi_inf(xi2), and
    chi1(p) <= chi2(p) for all but finitely many p.  Multiplying a
    representative by an integer only raises finitely many finite
    exponents, which absorbs any finite set of violations.
    """
    if bound < 2:
        raise ContractError("bound must be at least 2")
    if not set(x1.infinite_primes) <= set(x2.infinite_primes):
        return False
    kind, exceptional = _beyond_analysis(x1, x2)
    if kind in ("left-only", "differ", "right-below"):
        return False  # chi1 > chi2 at infinitely many primes
    needed = _inspection_set(x1, x2, exceptional)
    over = [p for p in needed if p > bound]
    if over:
        raise UndecidableError(
            f"undecidable with bound {bound}: primes {over} must be inspected"
        )
    return True


# -- almost-disjoint infinite prime sets -------------------------------------


def almost_disjoint_spectra(count: int, depth: int) -> list[TreeBranchPrimes]:
    """`count` infinite prime sets, pairwise sharing fewer than `width`
    elements (width = bits needed to label the branches).

    Deterministic: set k follows the binary-tree branch whose first bits
    spell k.  Each result is a decidable membership predicate on primes
    (and on prime indices via the heap codes of branch prefixes).
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    if depth < 1:
        raise ContractError("depth must be >= 1")
    width = max(1, (count - 1).bit_length())
    if width - 1 > depth:
        raise ContractError(
            f"{count} branches can share up to {width - 1} elements; "
            f"raise depth to at least {width - 1}"
        )
    return [TreeBranchPrimes(branch=k, width=width) for k in range(count)]
