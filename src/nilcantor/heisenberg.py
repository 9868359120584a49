"""Exact arithmetic in the integer Heisenberg group and its box subgroups.

An element is an integer triple (a, b, c) standing for the unipotent
matrix with rows (1, a, c), (0, 1, b), (0, 0, 1), so the group law is

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b').

A *box subgroup* Box(Ma, Mb, Mc) is the set {(a*Ma, b*Mb, c*Mc)}.  Such a
triple of moduli is closed under the law exactly when Mc divides Ma*Mb,
and every subgroup handled by this package is a box.  That shape is what
makes membership, indices, normal cores, relative cores, canonical coset
representatives and the left action on the coset space Gamma/B available
in closed form; the closed forms are validated against dumb enumeration
in the oracle module before being trusted at large moduli.

Everything here is immutable and pure.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from ._value import Value, set_field
from .errors import ContractError

__all__ = [
    "HeisenbergElement",
    "BoxSubgroup",
    "GAMMA",
    "index_in",
    "relative_core",
]


class HeisenbergElement(Value):
    """Integer triple (a, b, c); identity is (0, 0, 0)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        for v in (a, b, c):
            if not isinstance(v, int):
                raise ContractError(f"coordinates must be integers, got {v!r}")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)

    def _key(self) -> tuple:
        return (self.a, self.b, self.c)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.a + other.a,
            self.b + other.b,
            self.c + other.c + self.a * other.b,
        )

    def inverse(self) -> "HeisenbergElement":
        # (a,b,c)^-1 = (-a, -b, -c + a*b); check: g * g^-1 = (0,0,0).
        return HeisenbergElement(-self.a, -self.b, -self.c + self.a * self.b)

    def conjugate_by(self, by: "HeisenbergElement") -> "HeisenbergElement":
        """Return by * self * by^-1.

        Conjugation only shears the central coordinate:
        (x,y,z)(a,b,c)(x,y,z)^-1 = (a, b, c + x*b - y*a).
        """
        return HeisenbergElement(
            self.a, self.b, self.c + by.a * self.b - by.b * self.a
        )

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"

    @classmethod
    def parse(cls, text: str) -> "HeisenbergElement":
        m = re.fullmatch(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text.strip())
        if m is None:
            raise ContractError(f"not an element literal: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))


class BoxSubgroup(Value):
    """The subgroup {(a*Ma, b*Mb, c*Mc)} of the Heisenberg group.

    Requires Mc | Ma*Mb: the product of two box elements adds a*Ma*b'*Mb
    to the central coordinate, so this is exactly closure under the law.
    """

    __slots__ = ("Ma", "Mb", "Mc")

    def __init__(self, Ma: int, Mb: int, Mc: int):
        for v in (Ma, Mb, Mc):
            if not isinstance(v, int) or v <= 0:
                raise ContractError(f"box moduli must be positive integers, got {v!r}")
        if (Ma * Mb) % Mc != 0:
            raise ContractError(
                f"Box({Ma},{Mb},{Mc}) is not a subgroup: "
                f"{Mc} does not divide {Ma}*{Mb}"
            )
        set_field(self, "Ma", Ma)
        set_field(self, "Mb", Mb)
        set_field(self, "Mc", Mc)

    def _key(self) -> tuple:
        return (self.Ma, self.Mb, self.Mc)

    # -- membership -----------------------------------------------------

    def contains(self, g: HeisenbergElement) -> bool:
        return g.a % self.Ma == 0 and g.b % self.Mb == 0 and g.c % self.Mc == 0

    def contains_box(self, inner: "BoxSubgroup") -> bool:
        """Componentwise divisibility; for boxes this is subgroup containment."""
        return (
            inner.Ma % self.Ma == 0
            and inner.Mb % self.Mb == 0
            and inner.Mc % self.Mc == 0
        )

    # -- closed forms ----------------------------------------------------

    def core(self) -> "BoxSubgroup":
        """Largest subgroup of this box normal in the full group: the
        relative core over GAMMA, with moduli (lcm(Ma, Mc), lcm(Mb, Mc), Mc).
        """
        return relative_core(GAMMA, self)

    def index(self) -> int:
        """Index in the full group: the number of cosets Ma*Mb*Mc."""
        return self.Ma * self.Mb * self.Mc

    def generators(self) -> tuple[HeisenbergElement, HeisenbergElement, HeisenbergElement]:
        return (
            HeisenbergElement(self.Ma, 0, 0),
            HeisenbergElement(0, self.Mb, 0),
            HeisenbergElement(0, 0, self.Mc),
        )

    # -- the coset space Gamma/B ---------------------------------------------

    def canonical(self, g: HeisenbergElement) -> tuple[int, int, int]:
        """Representative of the left coset g*B, in [0, Ma) x [0, Mb) x [0, Mc).

        Multiplying g on the right by box elements can shift c by any
        multiple of Mc and by a*(multiples of Mb); reducing a and b first
        and then c - abar*(b - bbar) mod Mc picks the same triple for the
        whole coset (Mc | Ma*Mb makes the choice independent of the lift).
        The identity coset, the base of the odometer, is (0, 0, 0).
        """
        abar = g.a % self.Ma
        bbar = g.b % self.Mb
        return (abar, bbar, (g.c - abar * (g.b - bbar)) % self.Mc)

    def act(self, g: HeisenbergElement, x) -> tuple[int, int, int]:
        """The left action of g on the coset with canonical representative x."""
        if not (0 <= x[0] < self.Ma and 0 <= x[1] < self.Mb and 0 <= x[2] < self.Mc):
            raise ContractError(f"{x} is not a canonical representative")
        return self.canonical(g * HeisenbergElement(x[0], x[1], x[2]))

    def __str__(self) -> str:
        return f"Box({self.Ma},{self.Mb},{self.Mc})"

    @classmethod
    def parse(cls, text: str) -> "BoxSubgroup":
        m = re.fullmatch(r"Box\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)", text.strip())
        if m is None:
            raise ContractError(f"not a box literal: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))


GAMMA = BoxSubgroup(1, 1, 1)


# -- operations on two boxes ---------------------------------------------


def index_in(outer: BoxSubgroup, inner: BoxSubgroup) -> int:
    """Number of cosets of `inner` in `outer`; requires nesting."""
    if not outer.contains_box(inner):
        raise ContractError(f"{inner} is not contained in {outer}")
    return (inner.Ma // outer.Ma) * (inner.Mb // outer.Mb) * (inner.Mc // outer.Mc)


def relative_core(outer: BoxSubgroup, inner: BoxSubgroup) -> BoxSubgroup:
    """Elements of `inner` whose every `outer`-conjugate stays in `inner`.

    Conjugating (A, B, C) by (x, y, z) with Ma|x, Mb|y shifts the central
    coordinate by x*B - y*A, so membership of all conjugates needs
    Mc' | Ma*B and Mc' | Mb*A on top of inner membership.  Writing primes
    for the inner moduli this gives the box

        ( lcm(Ma', Mc'/gcd(Mc', Mb)),  lcm(Mb', Mc'/gcd(Mc', Ma)),  Mc' ).

    With the full group as `outer` this is the normal core.
    """
    if not outer.contains_box(inner):
        raise ContractError(f"{inner} is not contained in {outer}")
    ra = lcm(inner.Ma, inner.Mc // gcd(inner.Mc, outer.Mb))
    rb = lcm(inner.Mb, inner.Mc // gcd(inner.Mc, outer.Ma))
    return BoxSubgroup(ra, rb, inner.Mc)
