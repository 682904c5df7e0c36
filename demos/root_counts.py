"""
Positive roots of the E-series diagrams
=======================================

The rank-n diagram (a chain with one branch at the third node) has a
finite root system only through n = 8.  The positive root count there
matches the closure dimension exactly, which is the dimension half of
the isomorphism argument.
"""

from enspin.closure import blade_closure
from enspin.roots import positive_roots, theorem_b_check
from enspin.spinrep import cartan_matrix, spin_generators

for n in range(3, 9):
    rs = positive_roots(n)
    dim = blade_closure(n, spin_generators(n).masks).dim
    mark = "==" if theorem_b_check(n) else "!="
    print(f"n={n}: {rs.count:>3} positive roots {mark} closure dim {dim}")

# heights stratify the system; the highest root of the rank-8 system
# famously sits at height 29
rs = positive_roots(8)
heights = [sum(r) for r in rs.roots]
print(f"\nrank 8: heights run 1..{max(heights)}, "
      f"{heights.count(1)} simple roots, highest root {rs.roots[-1]}")

# the rank-3 diagram is disconnected (node 2 only attaches at n >= 4),
# so its positive system has two maximal elements
rs = positive_roots(3)
have = set(rs.roots)
tops = tuple(beta for beta in rs.roots
             if not any(beta[:i] + (beta[i] + 1,) + beta[i + 1:] in have for i in range(3)))
print(f"rank 3 maximal roots: {tops}")

# the Cartan matrix drives everything; row sums show the branch node
c = cartan_matrix(5)
print("\nrank 5 Cartan matrix:")
for row in c:
    print("  " + " ".join(f"{v:>2}" for v in row))

# past rank 8 the system is infinite and enumeration refuses to start
try:
    positive_roots(9)
except ValueError as e:
    print(f"\nrank 9: {e}")
