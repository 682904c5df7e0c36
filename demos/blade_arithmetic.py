"""
Exact blade arithmetic
======================

Blades are products of the generators v1, v2, ... with v_i v_i = 1 and
v_i v_j = -v_j v_i.  A blade is stored as a bitmask, a multivector as a
mask -> Fraction mapping, so everything below is exact.
"""

from fractions import Fraction

from enspin.clifford import Blade, blade_product
from enspin.multivector import Multivector, bracket

# products of basis blades pick up only a sign
for left, right in [(0b011, 0b110), (0b011, 0b011), (0b101, 0b111)]:
    a, b = Multivector({left: 1}, 3), Multivector({right: 1}, 3)
    print(f"({a}) ({b}) = {a * b}")

# the same thing at blade level: XOR the masks, count transpositions
prod = blade_product(Blade(0b011), Blade(0b110))
print(f"\nBlade(0b011) * Blade(0b110) -> sign {prod.sign:+d}, {prod}")

# anticommutation is decided by grades and the shared index count alone
x = Multivector({0b0011: 1}, 4)
y = Multivector({0b0110: 1}, 4)
print(f"\nxy = {x * y}")
print(f"yx = {y * x}   (shared index, both grade 2: they anticommute)")

# brackets of blades are 0 or twice a blade, which is why closures of
# blade sets stay blade sets
print(f"\n[v1v2, v2v3] = {bracket(x, y)}")
print(f"[v1v2, v3v4] = {bracket(x, Multivector({0b1100: 1}, 4))}   (disjoint even blades commute)")

# rational coefficients survive arithmetic untouched
half = Multivector({0b011: Fraction(1, 2)}, 3)
print(f"\n(1/2 v1v2)^2 = {half * half}")
