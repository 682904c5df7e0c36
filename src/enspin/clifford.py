"""Exact arithmetic in the real Clifford algebra with positive definite form.

Generators v_1, ..., v_n satisfy v_i^2 = +1 and v_i v_j = -v_j v_i for
i != j.  A basis monomial ("blade") is stored as a bitmask (bit i-1 set
iff v_i is a factor; factors always in ascending index order) together
with a sign in {+1, -1}.  General elements are sparse maps from blade
masks to exact rational coefficients; no floating point anywhere.

The induced Lie bracket is [A, B] = AB - BA.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

Coeff = Union[int, Fraction]


@dataclass(frozen=True)
class Blade:
    """A signed Clifford monomial: ``sign * v_{i_1} ... v_{i_k}`` with ascending indices."""

    mask: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("blade mask must be non-negative")
        if self.sign not in (1, -1):
            raise ValueError(f"blade sign must be +1 or -1, got {self.sign}")

    @property
    def grade(self) -> int:
        return self.mask.bit_count()

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
    """True iff the blades with these masks anticommute (ab = -ba)."""
    pa = a_mask.bit_count()
    pb = b_mask.bit_count()
    shared = (a_mask & b_mask).bit_count()
    return (pa * pb - shared) & 1 == 1


class Multivector:
    """Sparse element of C(R^n, q): map from blade mask to rational coefficient."""

    __slots__ = ("terms", "dim")

    def __init__(self, terms: Mapping[int, Coeff], dim: int):
        if dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {dim}")
        limit = 1 << dim
        clean: dict[int, Fraction] = {}
        for mask, c in terms.items():
            if not 0 <= mask < limit:
                raise ValueError(f"mask {mask:#x} outside ambient dimension {dim}")
            c = Fraction(c)
            if c:
                clean[mask] = c
        self.terms = clean
        self.dim = dim

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls({}, dim)

    @classmethod
    def scalar(cls, value: Coeff, dim: int) -> "Multivector":
        return cls({0: value}, dim)

    @classmethod
    def from_blade(cls, blade: Blade, dim: int, coeff: Coeff = 1) -> "Multivector":
        return cls({blade.mask: blade.sign * Fraction(coeff)}, dim)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_dim(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"ambient dimensions differ: {self.dim} vs {other.dim}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_dim(other)
        acc = dict(self.terms)
        for mask, c in other.terms.items():
            acc[mask] = acc.get(mask, Fraction(0)) + c
        return Multivector(acc, self.dim)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_dim(other)
        acc = dict(self.terms)
        for mask, c in other.terms.items():
            acc[mask] = acc.get(mask, Fraction(0)) - c
        return Multivector(acc, self.dim)

    def __neg__(self) -> "Multivector":
        return Multivector({m: -c for m, c in self.terms.items()}, self.dim)

    def scale(self, factor: Coeff) -> "Multivector":
        f = Fraction(factor)
        return Multivector({m: c * f for m, c in self.terms.items()}, self.dim)

    def __mul__(self, other: Union["Multivector", Coeff]) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mv_product(self, other)

    def __rmul__(self, other: Coeff) -> "Multivector":
        return self.scale(other)

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector({self!s}, dim={self.dim})"


def mv_product(x: Multivector, y: Multivector) -> Multivector:
    """Clifford product, extended bilinearly from blade_product."""
    x._check_dim(y)
    acc: dict[int, Fraction] = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            c = ca * cb
            if reorder_swaps(ma, mb) & 1:
                c = -c
            m = ma ^ mb
            acc[m] = acc.get(m, Fraction(0)) + c
    return Multivector(acc, x.dim)


def bracket(x: Multivector, y: Multivector) -> Multivector:
    """Lie bracket xy - yx.

    For single blades the result is 0 (commuting) or twice their blade
    product; the fast path keeps closure computations exact and cheap.
    """
    x._check_dim(y)
    if len(x.terms) == 1 and len(y.terms) == 1:
        (ma, ca), = x.terms.items()
        (mb, cb), = y.terms.items()
        if not blades_anticommute(ma, mb):
            return Multivector.zero(x.dim)
        c = 2 * ca * cb
        if reorder_swaps(ma, mb) & 1:
            c = -c
        return Multivector({ma ^ mb: c}, x.dim)
    return mv_product(x, y) - mv_product(y, x)


def grade_parts(x: Multivector) -> dict[int, Multivector]:
    """Partition of x by grade (popcount of mask); summing the parts gives x back."""
    buckets: dict[int, dict[int, Fraction]] = {}
    for mask, c in x.terms.items():
        buckets.setdefault(mask.bit_count(), {})[mask] = c
    return {g: Multivector(t, x.dim) for g, t in sorted(buckets.items())}


# --- textual rendering and parsing ------------------------------------------

def format_multivector(x: Multivector) -> str:
    """Signed sum in ascending mask order, e.g. ``v1v2 - 2v2v3 + 1/2v1v2v3v4``."""
    if not x.terms:
        return "0"
    pieces = []
    for mask, c in sorted(x.terms.items()):
        mag = abs(c)
        blade = "".join(f"v{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)
        if not blade:
            body = str(mag)
        elif mag == 1:
            body = blade
        else:
            body = f"{mag}{blade}"
        pieces.append(("-" if c < 0 else "+", body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?((?:v\d+)+)?")
_INDEX_RE = re.compile(r"v(\d+)")


def parse_multivector(text: str, dim: int) -> Multivector:
    """Parse the grammar produced by :func:`format_multivector`.

    Generator indices may appear in any order and may repeat; the term is
    normalized through the product rules (v2v1 parses as -v1v2, v1v1 as 1).
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty multivector literal")
    if s == "0":
        return Multivector.zero(dim)
    acc: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse multivector term at {s[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        mask, bsign = 0, 1
        if m.group(3):
            for idx_str in _INDEX_RE.findall(m.group(3)):
                i = int(idx_str)
                if not 1 <= i <= dim:
                    raise ValueError(f"generator v{i} outside ambient dimension {dim}")
                bit = 1 << (i - 1)
                if reorder_swaps(mask, bit) & 1:
                    bsign = -bsign
                mask ^= bit
        acc[mask] = acc.get(mask, Fraction(0)) + sign * bsign * coeff
        pos = m.end()
    return Multivector(acc, dim)


def parse_blade(text: str, dim: int) -> Blade:
    """Parse a single signed blade such as ``-v1v2v3``."""
    mv = parse_multivector(text, dim)
    if len(mv.terms) != 1:
        raise ValueError(f"not a single blade: {text!r}")
    (mask, c), = mv.terms.items()
    if c == 1:
        return Blade(mask, 1)
    if c == -1:
        return Blade(mask, -1)
    raise ValueError(f"blade coefficient must be +-1, got {c}")
