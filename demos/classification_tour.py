"""
Classifying the closures
========================

For each n the closure should land on the compact type that Clifford
periodicity predicts: sp, su, so in an eight-step pattern, doubled at
the split residues.  classify() measures dimension, center, derived
algebra, Killing definiteness, and rank, then compares.
"""

from enspin.analysis import analyze, classify
from enspin.bott import bott_algebra, closure_type

print("n    clifford algebra       predicted      computed       verdict")
for n in range(3, 9):
    res = classify(n)
    predicted = str(closure_type(n))
    print(f"{n:<5}{str(bott_algebra(n)):<23}{predicted:<15}{res.display:<15}"
          + ("pass" if res.verdict else "FAIL"))

# a closer look at one case: n = 6 should be sp(4), dimension 36, rank 4
bundle = analyze(6)
print(f"\nn=6: dim {bundle.basis.dim}, center {bundle.center}, "
      f"derived {bundle.derived}, rank {bundle.rank}")
print(f"compact: {bundle.compact}, Killing form negative definite: {bundle.killing_ok}")

# at n = 5 and n = 9 the top blade is central with square +1, so the
# algebra splits into two ideals of equal dimension
for n in (5, 9):
    split = analyze(n).split
    print(f"\nn={n}: split into {split.dims}, cross brackets vanish: "
          f"{split.cross_vanishes}, exhaustive: {split.exhaustive}")

# n = 3 is the one degenerate case: u(2) rather than a semisimple type,
# with the top blade spanning both the center and the Killing radical
res3 = classify(3)
print(f"\nn=3 lands on {res3.display} with center dimension {res3.center_dim}")
