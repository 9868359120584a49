"""Chains of box subgroups and their finite quotient towers.

Run:  python3 demos/03_quotient_towers.py
"""

from nilcantor.dynamics import discriminant_limit_report
from nilcantor.heisenberg import GAMMA, HeisenbergElement, index_in
from nilcantor.oracle import coset_orbit
from nilcantor.towers import ex41, ex42

# The one-prime self-similar chain Gamma_l = {(2^l a, 2^l b, 4^l c)}.
chain = ex41(2)
print("chain:", chain.label)
for level in (1, 2, 3):
    box, core = chain.box_at(level), chain.core_at(level)
    print(
        f"  level {level}: box={box}  core={core}  "
        f"|X|={index_in(GAMMA, box)}  |Q|={index_in(GAMMA, core)}  "
        f"|D|={index_in(box, core)}"
    )

# The discriminant levels are all nontrivial, yet their inverse limit is
# trivial: the connecting maps are not surjective and kill everything.
rep = discriminant_limit_report(chain, 1, 4)
print("image orders of deeper D's inside D_1:", rep.orders, "->", rep.limit_order)

# Contrast with the two-prime chain, whose discriminant survives.
rep2 = discriminant_limit_report(ex42(2, 3), 1, 4)
print("two-prime chain:", rep2.orders, "-> limit order", rep2.limit_order)

# The chain's Steinitz order: exact lcm at finite depth, certified limit.
order = chain.steinitz_order(4)
print("\nSteinitz order at depth 4:", order)

# Odometer coset arithmetic: canonical representatives and the action.
box = chain.box_at(1)
g = HeisenbergElement(3, 5, 7)
print("\ncanonical rep of (3,5,7) mod", box, "=", box.canonical(g))
# The orbit is enumerated by the oracle; transitivity is the closed form.
orbit = coset_orbit(box, [HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0), HeisenbergElement(0, 0, 1)])
print("orbit of the basepoint has size", len(orbit), "= whole space of", box.index())
