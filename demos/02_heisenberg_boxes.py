"""The integer Heisenberg group and its box subgroups, in closed form.

Run:  python3 demos/02_heisenberg_boxes.py
"""

from nilcantor.heisenberg import GAMMA, BoxSubgroup, HeisenbergElement, index_in, relative_core
from nilcantor.oracle import core_by_enumeration, relative_core_by_enumeration

# (a, b, c) stands for the unipotent matrix with rows (1,a,c),(0,1,b),(0,0,1).
x = HeisenbergElement(1, 0, 0)
y = HeisenbergElement(0, 1, 0)
print("x*y =", x * y, "   y*x =", y * x, "   (non-commutative)")
print("conjugation shears the center:  x y x^-1 =", y.conjugate_by(x))

# Box(Ma, Mb, Mc) = {(a*Ma, b*Mb, c*Mc)}; a subgroup iff Mc | Ma*Mb.
box = BoxSubgroup(2, 2, 4)
print("\nbox:", box, " index in the full group:", index_in(GAMMA, box))

# The normal core has a closed form, validated against dumb enumeration.
print("core:", box.core(), " by enumeration:", core_by_enumeration(box))

# Relative cores intersect conjugates over a smaller conjugator group;
# they are the pointwise-fixing kernels of the odometer cylinders.
outer, inner = BoxSubgroup(2, 3, 6), BoxSubgroup(4, 9, 36)
print("\nrelative core of", inner, "over", outer)
print("  closed form:   ", relative_core(outer, inner))
print("  by enumeration:", relative_core_by_enumeration(outer, inner))
