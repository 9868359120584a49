"""Supernatural (Steinitz) numbers: arithmetic, spectra, and types.

Run:  python3 demos/01_supernatural_numbers.py
"""

from nilcantor.steinitz import (
    Primes,
    SteinitzNumber,
    TailSchedule,
    asymptotically_equivalent,
    spectra,
    type_leq,
)

# A supernatural number is a formal product of prime powers where the
# exponents may be infinite.  Explicit data covers finitely many primes,
# as (prime, exponent) pairs and primes of exponent infinity; a lazy
# "tail" enumeration covers infinitely many more.
a = SteinitzNumber(((2, 3), (3, 1)), (5,))
b = SteinitzNumber(((2, 1), (7, 2)))
print("a           =", a)
print("b           =", b)
print("a * b       =", a.product(b))
print("lcm(a, b)   =", a.lcm(b))

# Spectra classify primes by multiplicity: finite part vs infinite part.
print("\nspectra of a up to 11:")
sp = spectra(a, 11)
print("  pi    =", sp.pi)
print("  pi_f  =", sp.pi_f)
print("  pi_inf=", sp.pi_inf)

# Asymptotic equivalence ignores finitely many finite-exponent changes:
# these two differ only at the prime 2.
every_prime = SteinitzNumber(tail=TailSchedule(Primes(), 1, 0))
odd_primes = SteinitzNumber(tail=TailSchedule(Primes(), 1, 1))
print("\nprod of all primes      =", every_prime)
print("prod of odd primes      =", odd_primes)
print("asymptotically equal?    ", asymptotically_equivalent(every_prime, odd_primes))

# The type order compares after multiplying by integers; 2^5*3 <= 2*3
# because the right side may be multiplied by 2^4.
x = SteinitzNumber(((2, 5), (3, 1)))
y = SteinitzNumber(((2, 1), (3, 1)))
print("\ntype of", x, "below type of", y, "?", type_leq(x, y))
