"""
Counting subsets by size mod 4
==============================

d_k(n) is the number of subsets of an n-set whose size is congruent to
k mod 4.  These counts come in closed forms built from 2^(n-2) and a
power of sqrt(2), and d_2 + d_3 is exactly the dimension bound for the
blade closures elsewhere in the package.
"""

from enspin.deltas import delta_closed, delta_identities, delta_sum, lower_bound_dim

print("n   d0      d1      d2      d3      total   d2+d3")
for n in range(1, 17):
    row = [delta_closed(k, n) for k in range(4)]
    assert row == [delta_sum(k, n) for k in range(4)]   # closed form vs direct count
    print(f"{n:<4}" + "".join(f"{v:<8}" for v in row)
          + f"{sum(row):<8}{row[2] + row[3]}")

# which pairs of the four counts coincide depends only on n mod 4
print("\nequalities by residue:")
for n in (8, 9, 10, 11):
    names = [k for k, ok in delta_identities(n).items() if ok]
    print(f"  n={n} (n mod 4 = {n % 4}): {', '.join(names)}")

# the closure dimension is d2 + d3, minus one exactly when n = 3 mod 4
# past the first case (the top blade drops out of reach there)
print("\nexpected closure dimensions:")
print([lower_bound_dim(n) for n in range(3, 13)])
