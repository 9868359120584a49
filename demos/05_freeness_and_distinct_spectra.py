"""Topological freeness and uncountably many distinct wild actions.

Run:  python3 demos/05_freeness_and_distinct_spectra.py
"""

from nilcantor.dynamics import freeness_certificate, trivial_action_kernel, wildness_certificate
from nilcantor.heisenberg import HeisenbergElement
from nilcantor.steinitz import almost_disjoint_spectra, asymptotically_equivalent
from nilcantor.towers import wild_chain

# The wild family is nevertheless topologically free: every non-identity
# group element eventually moves some coset, because all three kernel
# lattices grow without bound.
chain = wild_chain(2, 1)
cert = freeness_certificate(chain, 1, 100, 6)
print("freeness verdict:", cert.verdict)
print("every |coordinate| <= 100 escapes by depth", cert.escape_depth)
g = HeisenbergElement(0, 0, 4)
escape = next(d for d in range(1, 7) if not trivial_action_kernel(chain, 1, d).contains(g))
print("example: (0,0,4) escapes at depth", escape)

# Almost-disjoint infinite prime sets, one per branch of a binary tree:
# each pair shares only the primes of the common label prefix.
sets = almost_disjoint_spectra(5)
for s in sets:
    print(f"branch {s.branch}: first primes", [s.prime(i) for i in range(5)])

# Chains built over these sets have pairwise inequivalent Steinitz
# orders (the spectra differ at infinitely many primes), and every one
# of them is wild: uncountably many distinct wild actions in the limit
# construction, five of them materialized here.
chains = [wild_chain(2, 1, enumeration=s) for s in sets]
limits = [c.steinitz_order(3).limit for c in chains]
pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
inequivalent = sum(
    not asymptotically_equivalent(limits[i], limits[j]) for i, j in pairs
)
print(f"\npairwise inequivalent spectra: {inequivalent} of {len(pairs)} pairs")
print("wild verdicts:", [wildness_certificate(c, 2, 3).verdict for c in chains])
