"""
Lie closures of the spin generators
===================================

Starting from v1v2, v1v2v3, and the consecutive pairs v_{j-1}v_j, the
bracket closure inside the Clifford algebra is again a set of blades.
This script watches it grow with n and checks the grade pattern.
"""

from collections import Counter

from enspin.closure import blade_closure, lemma_containment_check
from enspin.spinrep import spin_generators

print("n    generators  dim     grades present")
for n in range(3, 13):
    gens = spin_generators(n).masks
    basis = blade_closure(n, gens)
    grades = Counter(m.bit_count() for m in basis.masks)
    profile = " ".join(f"{g}:{c}" for g, c in sorted(grades.items()))
    print(f"{n:<5}{len(gens):<12}{basis.dim:<8}{profile}")

# every mask has grade 2 or 3 mod 4, and the computed set IS the
# predicted set, not merely contained in it
for n in range(3, 13):
    basis = blade_closure(n, spin_generators(n).masks)
    rec = lemma_containment_check(n, basis)
    assert rec.passed, n
print("\ncomputed basis == predicted grade-(2,3 mod 4) set for n = 3..12")

# the top blade v1...vn is reachable only when its own grade fits the
# pattern: n = 3 itself, then n = 2 mod 4
for n in range(3, 13):
    basis = blade_closure(n, spin_generators(n).masks)
    full = (1 << n) - 1
    tag = "in" if full in basis else "out"
    print(f"  n={n:<3} top blade {tag}")
