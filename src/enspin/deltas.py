"""Counting subsets by size mod 4.

delta(k, n) is the number of subsets of an n-set whose size is congruent
to k mod 4.  These counts drive the dimension bookkeeping for the spin
image: the grade-(2,3 mod 4) blades number delta(2,n) + delta(3,n), and
one closed power-of-two formula makes the bounds explicit.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

MAX_DELTA_N = 2048  # the largest n `enspin delta` takes; about 0.3 s there on 2 vCPUs


def _check(k: int, n: int) -> None:
    if k not in (0, 1, 2, 3):
        raise ValueError(f"residue class k must be in 0..3, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


@lru_cache(maxsize=4)
def delta_sum(k: int, n: int) -> int:
    """Direct binomial sum: number of subsets of an n-set of size == k (mod 4).

    The four sums of the last n are cached, so `enspin delta`, which
    compares them with the closed form and then evaluates
    delta_identities(n) on them, sums each once.
    """
    _check(k, n)
    return sum(comb(n, i) for i in range(k, n + 1, 4))


def delta_closed(k: int, n: int) -> int:
    """Closed form delta(k, n) = (2^n + c 2^(n//2 + 1)) / 4, with c in {-1, 0, 1}.

    The roots-of-unity filter gives delta(k, n) = 1/4 sum_j i^(-jk) (1 + i^j)^n
    over j = 0..3.  The j = 2 term vanishes for n >= 1, and the j = 1 and
    j = 3 terms are conjugates, so delta(k, n) = (2^n + 2 Re z) / 4 with
    z = i^(-k) (1 + i)^n.  Since (1 + i)^2 = 2i, z = 2^(n//2) i^r (1 + i)^(n mod 2)
    with r = (n//2 - k) mod 4, and Re z = c 2^(n//2), c the real part of i^r
    for even n and of i^r (1 + i) for odd n.  The filter sum is
    4 delta(k, n), so the division is exact.
    """
    _check(k, n)
    c = ((1, 0, -1, 0), (1, -1, -1, 1))[n % 2][(n // 2 - k) % 4]
    return ((1 << n) + c * (1 << (n // 2 + 1))) // 4


def delta_identities(n: int) -> dict[str, bool]:
    """Evaluate the structural identities among the four counts at n.

    Returns one flag per identity: the total 2^n, the even/odd half sums
    2^(n-1), and the complementation equalities d{k} == d{j}, j = (n - k) mod 4.
    Complementing a subset of the n-set is a bijection that takes size i
    to size n - i, and i == k (mod 4) iff n - i == n - k (mod 4), so
    delta(k, n) = delta((n - k) mod 4, n).  Each pair with k < j is one
    flag: (1, 3) for n == 0 (mod 4), (0, 1) and (2, 3) for 1, (0, 2) for 2,
    (0, 3) and (1, 2) for 3; a k with j == k is its own complement.
    delta_sum's check raises ValueError for n < 1 before any sum.
    """
    d = [delta_sum(k, n) for k in range(4)]
    out = {
        "total_is_2n": sum(d) == 2 ** n,
        "half_sums_are_2n1": d[0] + d[2] == d[1] + d[3] == 2 ** (n - 1),
    }
    for k in range(4):
        j = (n - k) % 4
        if k < j:
            out[f"d{k}_eq_d{j}"] = d[k] == d[j]
    return out


def drops_top_blade(n: int) -> bool:
    """The spin closure misses the top blade: n == 3 (mod 4) past n = 3, where it is a generator."""
    return n % 4 == 3 and n > 3


def lower_bound_dim(n: int) -> int:
    """Dimension of the span of the grade-(2,3 mod 4) blades the closure reaches.

    That is delta(2,n) + delta(3,n), minus one where the top blade is
    missed (drops_top_blade).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return delta_sum(2, n) + delta_sum(3, n) - drops_top_blade(n)
