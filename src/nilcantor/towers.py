"""Symbolic descending chains of Heisenberg box subgroups and their towers.

A chain Gamma = Gamma_0 > Gamma_1 > ... of finite-index box subgroups is
described by per-prime, per-coordinate exponent schedules

    e_p(level) = 0 if level < max(start, 1) else base + slope*level,

optionally together with an *indexed family*: a prime enumeration q_1,
q_2, ... where q_i enters the chain at level i with constant exponents
(one per coordinate).  Every chain used by this package fits this class;
it is closed under the questions the dynamics module asks because every
derived quantity is eventually affine in the level.

Every exponent is 0 at level 0, so Gamma_0 = Gamma: box_at(0) is GAMMA,
the level-0 cylinder is the whole Cantor set, and no caller decides
level 0 for itself.

From the chain the module builds, all in exact integer arithmetic:

  * box_at / core_at          -- Gamma_l and its normal core C_l,
  * stable_image              -- the image of D_depth inside D_level under
                                 the connecting maps Q_depth -> Q_level,
  * steinitz_order            -- lcm of the coset-space sizes #(Gamma/Gamma_l),
                                 with schedule-certified infinity promotion.

Every subgroup of the tower is a box of Gamma taken modulo the core C_l:
Q_l = Gamma/C_l has order C_l.index(), the discriminant D_l = Gamma_l/C_l
has order index_in(box_at(l), core_at(l)), and an image in Q_l is the box
it pulls back to, of order index_in(image, core_at(l)).  So no group law
on residues is needed here; the one that checks these closed forms
(subgroup_closure) lives in the oracle module, with the orbits and the
fixing scans.  The coset space Gamma/Gamma_l and its left action are
those of the box box_at(l) (BoxSubgroup.canonical and BoxSubgroup.act).

Exponent infinity is never extrapolated: a prime is promoted to the
infinite part of a Steinitz order only when its schedule provably grows
(slope > 0), and raw finite lcm values always carry the depth at which
they were computed.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from ._value import Value, set_field
from .errors import ContractError, ResourceError
from .heisenberg import BoxSubgroup
from .primes import SIEVE_CAP, isprime
from .steinitz import Primes, SteinitzNumber, TailSchedule, TreeBranchPrimes, _check_enumeration

__all__ = [
    "CoordSchedule",
    "PrimeSchedule",
    "IndexedFamily",
    "ChainSpec",
    "FiniteQuotient",
    "ChainSteinitzOrder",
    "ex41",
    "ex42",
    "stable_chain",
    "wild_chain",
    "builtin_chain",
    "parse_chain_config",
]

COORDS = ("a", "b", "c")


# -- schedules ----------------------------------------------------------------


class CoordSchedule(Value):
    """One prime's exponent in one coordinate: 0 below `start` and at
    level 0, then base + slope*level.  Monotone because slope >= 0."""

    __slots__ = ("start", "base", "slope")

    def __init__(self, start: int = 0, base: int = 0, slope: int = 0):
        if start < 0 or base < 0 or slope < 0:
            raise ContractError("schedule parameters must be non-negative")
        set_field(self, "start", start)
        set_field(self, "base", base)
        set_field(self, "slope", slope)

    def exponent(self, level: int) -> int:
        if level < 1 or level < self.start:
            return 0
        return self.base + self.slope * level

    def is_zero(self) -> bool:
        return self.base == 0 and self.slope == 0

    def _key(self) -> tuple:
        # Every exponent is 0 at level 0, so starts 0 and 1 give one
        # schedule, and a zero schedule is zero from any start.
        start = 1 if self.is_zero() else max(self.start, 1)
        return (start, self.base, self.slope)


ZERO_SCHEDULE = CoordSchedule()


def _breakpoints(scheds) -> list[int]:
    """The levels 1, and s - 1 and s for every start s >= 2, sorted.  Between
    two consecutive ones, and past the last, every exponent of `scheds` is
    affine in the level, so a linear inequality among them that holds at
    these levels holds at every level up to the last breakpoint."""
    starts = {f.start for f in scheds if f.start >= 2}
    return sorted({1} | starts | {s - 1 for s in starts})


class PrimeSchedule(Value):
    """The three coordinate schedules of one prime."""

    __slots__ = ("prime", "a", "b", "c")

    def __init__(
        self,
        prime: int,
        a: CoordSchedule = ZERO_SCHEDULE,
        b: CoordSchedule = ZERO_SCHEDULE,
        c: CoordSchedule = ZERO_SCHEDULE,
    ):
        if not isprime(prime):
            raise ContractError(f"not a prime: {prime!r}")
        set_field(self, "prime", prime)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)

    def coord(self, coord: str) -> CoordSchedule:
        return getattr(self, coord)


class IndexedFamily(Value):
    """One new prime per level: q_i = primes.prime(i-1) enters at level i
    with constant per-coordinate exponents (a_exp, b_exp, c_exp)."""

    __slots__ = ("primes", "a_exp", "b_exp", "c_exp")

    def __init__(self, primes: Primes | TreeBranchPrimes, a_exp: int, b_exp: int, c_exp: int):
        _check_enumeration(primes)
        if min(a_exp, b_exp, c_exp) < 0:
            raise ContractError("family exponents must be non-negative")
        if c_exp > a_exp + b_exp:
            raise ContractError(
                "family violates the box condition: c exponent exceeds a+b"
            )
        if a_exp + b_exp == 0:  # then c_exp is 0 too, by the check above
            raise ContractError("family must contribute at least one coordinate")
        set_field(self, "primes", primes)
        set_field(self, "a_exp", a_exp)
        set_field(self, "b_exp", b_exp)
        set_field(self, "c_exp", c_exp)

    def prime_at(self, i: int) -> int:
        """The prime activated at level i (1-indexed)."""
        return self.primes.prime(i - 1)

    def schedule_at(self, i: int) -> PrimeSchedule:
        """The schedule of q_i: the constant family exponents from level i
        on."""
        return PrimeSchedule(
            self.prime_at(i),
            CoordSchedule(i, self.a_exp),
            CoordSchedule(i, self.b_exp),
            CoordSchedule(i, self.c_exp),
        )


# -- the chain ----------------------------------------------------------------


class ChainSpec(Value):
    """A properly descending chain of box subgroups, given symbolically.

    `explicit` holds PrimeSchedule entries for distinct primes, stored
    sorted by prime.  `trivial_intersection` declares that the boxes
    shrink to the identity (all three moduli grow without bound); it is
    checked against the schedules and may be disabled to model degenerate
    chains on purpose.
    """

    __slots__ = ("label", "explicit", "family", "trivial_intersection")

    def __init__(
        self,
        label: str,
        explicit: tuple = (),
        family: Optional[IndexedFamily] = None,
        trivial_intersection: bool = True,
    ):
        entries = tuple(sorted(explicit, key=lambda s: s.prime))
        # Stored before validation, because the validators read the fields.
        set_field(self, "label", label)
        set_field(self, "explicit", entries)
        set_field(self, "family", family)
        set_field(self, "trivial_intersection", trivial_intersection)
        seen = set()
        for s in entries:
            if s.prime in seen:
                raise ContractError(f"duplicate schedule for prime {s.prime}")
            seen.add(s.prime)
            if all(s.coord(x).is_zero() for x in COORDS):
                raise ContractError(f"prime {s.prime} has an all-zero schedule")
        if self.family is not None:
            for p in seen:
                if self.family.primes.index_of(p) is not None:
                    raise ContractError(
                        f"prime {p} is both explicit and in the indexed family"
                    )
        self._validate_box_condition()
        self._validate_proper_descent()
        if self.trivial_intersection:
            self._validate_trivial_intersection()

    # -- structural validation -------------------------------------------

    def _validate_box_condition(self):
        # Per prime: e_c(l) <= e_a(l) + e_b(l), at the prime's breakpoints
        # and, past the last one, from the slopes.
        for s in self.explicit:
            for level in _breakpoints([s.a, s.b, s.c]):
                ea, eb, ec = (s.coord(x).exponent(level) for x in COORDS)
                if ec > ea + eb:
                    raise ContractError(
                        f"prime {s.prime}: box condition fails at level {level} "
                        f"(c exponent {ec} > {ea}+{eb})"
                    )
            if s.c.slope > s.a.slope + s.b.slope:
                raise ContractError(
                    f"prime {s.prime}: box condition fails for all large levels"
                )
        # The family was checked in IndexedFamily.__init__.

    def _validate_proper_descent(self):
        # Exponents are monotone, so by unique factorisation box_at(l+1)
        # differs from box_at(l) exactly when some exponent grows there.
        # A growing schedule grows at every level from its start - 1 on,
        # and a constant one only at its start - 1, so the first level with
        # no growth is 1 or a start: a breakpoint.
        if self.family is not None:
            return  # a new prime enters at every level
        scheds = [s.coord(x) for s in self.explicit for x in COORDS]
        for level in _breakpoints(scheds):
            if all(f.exponent(level + 1) == f.exponent(level) for f in scheds):
                raise ContractError(
                    f"chain is not properly descending at level {level} -> "
                    f"{level + 1}; it is eventually constant"
                )

    def _validate_trivial_intersection(self):
        for coord in COORDS:
            if self.settled_factors(coord) is not None:
                raise ContractError(
                    f"trivial intersection declared but the {coord}-modulus "
                    "is bounded; declare trivial_intersection=False "
                    "for degenerate chains"
                )

    # -- evaluation ---------------------------------------------------------

    def settled_factors(self, coord: str) -> Optional[tuple]:
        """The value at which the boxes' `coord`-modulus settles as the level
        grows, factored: (p, base) over the explicit primes.  None when it
        grows without bound: some explicit slope, or the family exponent, in
        `coord` is positive.  Factored, so that deciding costs no power."""
        f = self.family
        if f is not None and getattr(f, f"{coord}_exp") > 0:
            return None
        if any(s.coord(coord).slope > 0 for s in self.explicit):
            return None
        return tuple((s.prime, s.coord(coord).base) for s in self.explicit)

    def schedules(self, level: int) -> list[PrimeSchedule]:
        """The schedules a walk of the levels up to `level` reads, sorted by
        prime: the explicit entries as stored, and those of the family
        primes q_1..q_level, found by index.  Every level walk reads its
        exponents from here."""
        rows = list(self.explicit)
        if self.family is not None:
            rows += [self.family.schedule_at(i) for i in range(1, level + 1)]
        return sorted(rows, key=lambda s: s.prime)

    def check_depth_budget(self, level: int, what: str) -> None:
        """Refuse `what`, whose deepest level read is `level`, when the
        family prime activated there lies past the sieve cap: past the
        sieve every family prime would pay a prime count, so such a level
        walk runs without end in practice.  It costs one prime lookup, so
        callers make it once, before any level walk."""
        if self.family is not None and self.family.prime_at(level) > SIEVE_CAP:
            raise ResourceError(f"{what} reaches family primes past the sieve cap {SIEVE_CAP}")

    def box_at(self, level: int) -> BoxSubgroup:
        if level < 0:
            raise ContractError("level must be >= 0")
        ma = mb = mc = 1
        for s in self.schedules(level):
            p = s.prime
            ma *= p ** s.a.exponent(level)
            mb *= p ** s.b.exponent(level)
            mc *= p ** s.c.exponent(level)
        return BoxSubgroup(ma, mb, mc)

    def core_at(self, level: int) -> BoxSubgroup:
        return self.box_at(level).core()

    def quotient_at(self, level: int) -> "FiniteQuotient":
        """The moduli and the order of Q_level = Gamma/C_level."""
        c = self.core_at(level)
        return FiniteQuotient(c.Ma, c.Mb, c.Mc)

    def stable_image(self, level: int, depth: int) -> BoxSubgroup:
        """The image of D_depth in Q_level under the composed connecting
        maps, as the box Gamma_depth*C_level it pulls back to: against
        Gamma_depth = Box(Ma, Mb, Mc) and C_level = Box(A, B, C), the moduli
        (gcd(Ma, A), gcd(Mb, B), C).  Its order is index_in(image,
        core_at(level)); oracle.subgroup_closure is the independent route.

        C_level is normal in Gamma, so the product is a subgroup, and its a-
        and b-coordinates, which add, fill the gcd lattices.  Its central
        coordinate takes every multiple of C and nothing else: for h in
        Gamma_depth and n in C_level, h*n has central coordinate
        h.c + n.c + h.a*n.b, where C divides n.c, n.b (as C | B) and h.c
        (as C = Mc_level divides Mc_depth: the chain descends).  So the
        c-modulus is always C.
        """
        if depth < level:
            raise ContractError("depth must be >= level")
        return self.image_over(self.core_at(level), depth)

    def image_over(self, core: BoxSubgroup, depth: int) -> BoxSubgroup:
        """stable_image(level, depth) from the level's core = core_at(level),
        so that a walk over the depths builds that core once.  The depth is
        not checked against the level."""
        box = self.box_at(depth)
        return BoxSubgroup(gcd(box.Ma, core.Ma), gcd(box.Mb, core.Mb), core.Mc)

    def steinitz_order(self, depth: int) -> "ChainSteinitzOrder":
        """lcm of the coset-space sizes #(Gamma/Gamma_l), l <= depth.

        The raw value is the exact finite lcm at this depth.  The limit
        additionally promotes a prime to exponent oo exactly when its
        schedule grows without bound (slope > 0 in some coordinate), and
        carries the indexed family as a lazy tail.  Both statements are
        read off the schedules, never extrapolated from the raw numbers.
        """
        if depth < 1:
            raise ContractError("depth must be >= 1")
        self.check_depth_budget(depth, f"a Steinitz order at depth {depth}")
        raw_fp: dict[int, int] = {}
        # Schedules are monotone, so the lcm exponent is the depth value.
        for s in self.schedules(depth):
            e = s.a.exponent(depth) + s.b.exponent(depth) + s.c.exponent(depth)
            if e:
                raw_fp[s.prime] = e
        raw = SteinitzNumber(tuple(sorted(raw_fp.items())))

        promoted, limit_fp = [], {}
        for s in self.explicit:
            total = sum(s.coord(x).slope for x in COORDS)
            if total > 0:
                promoted.append(s.prime)
            else:
                # The constant limit, at least 1: no explicit prime is all zero.
                limit_fp[s.prime] = sum(s.coord(x).base for x in COORDS)
        tail = None
        if self.family is not None:
            e = self.family.a_exp + self.family.b_exp + self.family.c_exp
            tail = TailSchedule(self.family.primes, e, start=0)
        limit = SteinitzNumber(
            tuple(sorted(limit_fp.items())), tuple(sorted(promoted)), tail
        )
        return ChainSteinitzOrder(raw=raw, limit=limit, depth=depth)


class ChainSteinitzOrder(Value):
    """Steinitz order of a chain: the raw finite lcm at the computed depth
    and the schedule-certified limit (infinity promotions and lazy tail);
    the primes certified to have unbounded exponent are
    `limit.infinite_primes`."""

    __slots__ = ("raw", "limit", "depth")

    def __init__(self, raw: SteinitzNumber, limit: SteinitzNumber, depth: int):
        set_field(self, "raw", raw)
        set_field(self, "limit", limit)
        set_field(self, "depth", depth)

    def __str__(self) -> str:
        return f"{self.limit} (raw at depth {self.depth}: {self.raw})"


# -- finite quotients ---------------------------------------------------------


class FiniteQuotient(Value):
    """The moduli of a finite quotient Gamma/N by a normal box N = Box(A, B, C),
    and its order A*B*C.  A box is normal exactly when C | A and C | B
    (conjugation shears the central coordinate by multiples of A and B),
    so quotients by cores always qualify."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A: int, B: int, C: int):
        if min(A, B, C) < 1:
            raise ContractError("quotient moduli must be positive")
        if A % C or B % C:
            raise ContractError(
                f"Box({A},{B},{C}) is not normal: {C} must divide both {A} and {B}"
            )
        set_field(self, "A", A)
        set_field(self, "B", B)
        set_field(self, "C", C)

    @property
    def order(self) -> int:
        return self.A * self.B * self.C


# -- built-in chains ----------------------------------------------------------


def ex41(p: int) -> ChainSpec:
    """Self-similar one-prime chain: Gamma_l = {(p^l a, p^l b, p^{2l} c)}."""
    if not isprime(p):
        raise ContractError(f"p must be prime, got {p!r}")
    return ChainSpec(
        label=f"ex41(p={p})",
        explicit=(
            PrimeSchedule(
                p,
                a=CoordSchedule(1, 0, 1),
                b=CoordSchedule(1, 0, 1),
                c=CoordSchedule(1, 0, 2),
            ),
        ),
    )


def ex42(p: int, q: int) -> ChainSpec:
    """Two-prime chain: Gamma_l = {(p^l a, q^l b, (pq)^l c)}."""
    if not (isprime(p) and isprime(q)) or p == q:
        raise ContractError("p and q must be distinct primes")
    return ChainSpec(
        label=f"ex42(p={p},q={q})",
        explicit=(
            PrimeSchedule(p, a=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)),
            PrimeSchedule(q, b=CoordSchedule(1, 0, 1), c=CoordSchedule(1, 0, 1)),
        ),
    )


def _growing_primes(pi_inf) -> tuple:
    """p_j^level in every coordinate for the j-th smallest prime p_j of
    pi_inf, entering at level j."""
    return tuple(
        PrimeSchedule(p, *[CoordSchedule(j, 0, 1)] * 3)
        for j, p in enumerate(sorted(pi_inf), start=1)
    )


def stable_chain(pi_f, r, n, pi_inf) -> ChainSpec:
    """Finite family q_i^(r_i | n_i | n_i) plus growing primes p_j^level
    (p_j entering at level j): Gamma_l = {(a*M_l, b*N_l, c*N_l)} with
    M_l = prod q_i^r_i * prod_{j<=l} p_j^l and N_l the same with n_i."""
    pi_f, pi_inf = tuple(pi_f), tuple(pi_inf)
    r, n = tuple(r), tuple(n)
    if len(pi_f) != len(r) or len(pi_f) != len(n):
        raise ContractError("pi_f, r, n must have equal lengths")
    if set(pi_f) & set(pi_inf):
        raise ContractError("pi_f and pi_inf must be disjoint")
    for ri, ni in zip(r, n):
        if not 1 <= ri <= ni:
            raise ContractError(f"need 1 <= r <= n, got r={ri}, n={ni}")
    entries = tuple(
        PrimeSchedule(
            q,
            a=CoordSchedule(1, ri, 0),
            b=CoordSchedule(1, ni, 0),
            c=CoordSchedule(1, ni, 0),
        )
        for q, ri, ni in zip(pi_f, r, n)
    )
    label = "stable(pi_f=%s;r=%s;n=%s;pi_inf=%s)" % (
        ",".join(map(str, pi_f)),
        ",".join(map(str, r)),
        ",".join(map(str, n)),
        ",".join(map(str, sorted(pi_inf))),
    )
    return ChainSpec(label=label, explicit=entries + _growing_primes(pi_inf))


def wild_chain(
    n: int, r: int, pi_inf=(), enumeration: Primes | TreeBranchPrimes | None = None
) -> ChainSpec:
    """Indexed family with one new prime per level, q_i^(r | n | n), plus
    optional growing primes as in the finite-family construction.  Needs
    1 <= r < n so each activation leaves a genuine kernel gap."""
    if not 1 <= r < n:
        raise ContractError(f"need 1 <= r < n, got r={r}, n={n}")
    pi_inf = tuple(sorted(pi_inf))
    if enumeration is None:
        enumeration = Primes(exclude=pi_inf)
    else:
        _check_enumeration(enumeration)
        for p in pi_inf:
            if enumeration.index_of(p) is not None:
                raise ContractError(f"family enumeration must exclude {p}")
    label = "wild(n=%d;r=%d;pi_inf=%s;q=%s)" % (
        n,
        r,
        ",".join(map(str, pi_inf)),
        enumeration.key(),
    )
    return ChainSpec(
        label=label,
        explicit=_growing_primes(pi_inf),
        family=IndexedFamily(enumeration, a_exp=r, b_exp=n, c_exp=n),
    )


_BUILTIN_CHAINS = {"ex41": ex41, "ex42": ex42, "stable": stable_chain, "wild": wild_chain}


def builtin_chain(name: str, **params) -> ChainSpec:
    """The built-in chain `name`, built from its constructor's keywords."""
    if name not in _BUILTIN_CHAINS:
        raise ContractError(f"unknown built-in chain {name!r}")
    return _BUILTIN_CHAINS[name](**params)


# -- declarative chain config -------------------------------------------------

_CONFIG_GRAMMAR = """\
one schedule per line:
    prime=2 coord=a start=1 base=0 slope=1
    family qi coord=a start=i base=1 slope=0
directives:
    label=<text>
    family exclude=5,7
    trivial_intersection=false
"""


def parse_chain_config(text: str) -> ChainSpec:
    """Parse the declarative chain format (see _CONFIG_GRAMMAR).

    A (prime, coord) pair, a family coord, or a directive may be given on
    one line only; a repeat is an error naming both lines.
    """
    explicit: dict[int, dict[str, CoordSchedule]] = {}
    family_coords: dict[str, int] = {}
    first_line: dict = {}  # (prime or "family", coord) or directive -> line
    family_exclude: tuple = ()
    label = "config"
    trivial = True
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.partition("#")[0].strip()
        if not line:
            continue

        def fail(msg):
            raise ContractError(f"line {lineno}: {msg}: {rawline!r}")

        def claim(key, what):
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                fail(f"{what} on line {first}")

        if line.startswith("label="):
            claim("label", "the label was already set")
            label = line.split("=", 1)[1].strip()
            continue
        if line.startswith("trivial_intersection="):
            claim("trivial_intersection", "trivial_intersection was already set")
            value = line.split("=", 1)[1].strip().lower()
            if value not in ("true", "false"):
                fail("expected true or false")
            trivial = value == "true"
            continue
        tokens = line.split()
        fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
        if tokens[0] == "family":
            if "exclude" in fields:
                claim("exclude", "the family exclusions were already set")
                try:
                    family_exclude = tuple(int(x) for x in fields["exclude"].split(","))
                except ValueError:
                    fail("family exclude takes comma-separated integers")
                continue
            if tokens[1:2] != ["qi"]:
                fail("family lines read: family qi coord=<a|b|c> start=i base=<int> slope=0")
            if fields.get("start", "i") != "i" or fields.get("slope", "0") != "0":
                fail("family schedules have start=i and slope=0")
            coord = fields.get("coord")
            if coord not in COORDS:
                fail("coord must be a, b or c")
            claim(("family", coord), f"the family already has a coord={coord} schedule")
            try:
                family_coords[coord] = int(fields["base"])
            except (KeyError, ValueError):
                fail("family lines need base=<int>")
            continue
        if len(fields) != len(tokens):
            fail("expected key=value tokens")
        try:
            p = int(fields["prime"])
            coord = fields["coord"]
            sched = CoordSchedule(
                start=int(fields.get("start", 0)),
                base=int(fields.get("base", 0)),
                slope=int(fields.get("slope", 0)),
            )
        except (KeyError, ValueError) as exc:
            fail(f"bad schedule line ({exc})")
        if coord not in COORDS:
            fail("coord must be a, b or c")
        claim((p, coord), f"prime {p} already has a coord={coord} schedule")
        explicit.setdefault(p, {})[coord] = sched

    entries = tuple(
        PrimeSchedule(
            p,
            a=coords.get("a", ZERO_SCHEDULE),
            b=coords.get("b", ZERO_SCHEDULE),
            c=coords.get("c", ZERO_SCHEDULE),
        )
        for p, coords in sorted(explicit.items())
    )
    if "exclude" in first_line and not family_coords:
        raise ContractError(
            f"line {first_line['exclude']}: family exclude= without a family qi line"
        )
    family = None
    if family_coords:
        family = IndexedFamily(
            Primes(exclude=family_exclude),
            a_exp=family_coords.get("a", 0),
            b_exp=family_coords.get("b", 0),
            c_exp=family_coords.get("c", 0),
        )
    return ChainSpec(
        label=label, explicit=entries, family=family, trivial_intersection=trivial
    )
