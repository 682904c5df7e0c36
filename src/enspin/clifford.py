"""Exact arithmetic in the real Clifford algebra with positive definite form.

Generators v_1, ..., v_n satisfy v_i^2 = +1 and v_i v_j = -v_j v_i for
i != j.  A basis monomial ("blade") is stored as a bitmask (bit i-1 set
iff v_i is a factor; factors always in ascending index order) together
with a sign in {+1, -1}.  Every product of two blades is one signed
blade, and two blades either commute or anticommute.  Both facts the
verifier needs are rules on the masks alone, and this module is their
one home: the F_2 commutation form q, as a predicate
(blades_anticommute) and as an n-bit row (_commutation_vector), and the
square rule (squares_to_minus_one).  blade_product, the signed product,
is their independent test oracle, and Blade prints a basis element for
closure --format text.  General elements with rational coefficients
live in enspin.multivector.
"""

from __future__ import annotations

from typing import NamedTuple


class _BladeFields(NamedTuple):
    mask: int
    sign: int = 1


class Blade(_BladeFields):
    """A signed Clifford monomial: ``sign * v_{i_1} ... v_{i_k}`` with ascending indices."""

    __slots__ = ()

    def __new__(cls, mask: int, sign: int = 1) -> Blade:
        if mask < 0:
            raise ValueError("blade mask must be non-negative")
        if sign not in (1, -1):
            raise ValueError(f"blade sign must be +1 or -1, got {sign}")
        return super().__new__(cls, mask, sign)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)

    def indices(self) -> tuple[int, ...]:
        """1-based generator indices, ascending."""
        return tuple(i + 1 for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def __str__(self) -> str:
        body = "".join(f"v{i}" for i in self.indices()) or "1"
        return ("-" if self.sign < 0 else "") + body


def reorder_swaps(a_mask: int, b_mask: int) -> int:
    """Transpositions needed to merge the ascending words of a and b into one ascending word."""
    t = 0
    b = b_mask
    while b:
        low = b & -b
        t += (a_mask >> low.bit_length()).bit_count()
        b ^= low
    return t


def blade_product(a: Blade, b: Blade) -> Blade:
    """Clifford product of two blades: mask XOR, sign by transposition count.

    Squares v_i^2 = 1 drop matched generators, so the result mask is the
    symmetric difference; each generator of b bubbles left past the
    higher-indexed generators of a, contributing (-1) per swap.
    """
    sign = a.sign * b.sign
    if reorder_swaps(a.mask, b.mask) & 1:
        sign = -sign
    return Blade(a.mask ^ b.mask, sign)


def blades_anticommute(a_mask: int, b_mask: int) -> bool:
    """True iff the blades with these masks anticommute, ab = -ba: q(a, b) = 1 (_commutation_vector)."""
    return (a_mask.bit_count() * b_mask.bit_count() + (a_mask & b_mask).bit_count()) & 1 == 1


def _commutation_vector(g: int, n: int) -> int:
    """h_g: the blade x anticommutes with the blade g iff |x & h_g| is odd.

    Moving a factor v of g across x passes |x| factors, and all but v
    itself (when v is in x) anticommute with it, so
    xg = (-1)^(|x||g| - |x & g|) gx.  For even |g| that is |x & g| odd;
    for odd |g| it is |x| - |x & g| = |x & ~g| odd.  So h_g = g or
    g ^ (2^n - 1).  The exponent q(x, g) = |x||g| + |x & g| mod 2 is
    bilinear over F_2 and q(x, x) = 0.
    """
    return g ^ ((1 << n) - 1) if g.bit_count() & 1 else g


def squares_to_minus_one(mask: int) -> bool:
    """True iff the blade with this mask squares to -1: its grade k is 2 or 3 mod 4.

    Reversing the k factors of a grade-k blade b takes k(k-1)/2 swaps,
    and b reverse(b) = 1 because each v_i squares to 1, so
    b^2 = (-1)^(k(k-1)/2) (Lawson and Michelsohn, Spin Geometry, ch. I):
    -1 exactly for k == 2, 3 mod 4, when bit 1 of k is set.  The sign
    of a signed blade cancels in its square.
    """
    return bool(mask.bit_count() & 2)
