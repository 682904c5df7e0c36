"""Sparse multivectors of the real Clifford algebra with positive definite form.

A multivector is a map from blade masks (enspin.clifford) to exact
rational coefficients; no floating point anywhere.  Products extend
blade_product bilinearly, and the induced Lie bracket is
[A, B] = AB - BA.  No command uses this engine, only the unit tests
and the demos, so fractions stays out of every CLI start.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .clifford import reorder_swaps

Coeff = Union[int, Fraction]


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
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        acc = dict(self.terms)
        for mask, c in other.terms.items():
            acc[mask] = acc.get(mask, Fraction(0)) + c
        return Multivector(acc, self.dim)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Multivector":
        return Multivector({m: -c for m, c in self.terms.items()}, self.dim)

    def scale(self, factor: Coeff) -> "Multivector":
        f = Fraction(factor)
        return Multivector({m: c * f for m, c in self.terms.items()}, self.dim)

    def __mul__(self, other: Union["Multivector", Coeff]) -> "Multivector":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mv_product(self, other) if isinstance(other, Multivector) else NotImplemented

    def __rmul__(self, other: Coeff) -> "Multivector":
        return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector({self!s}, dim={self.dim})"


def _check_operands(x: Multivector, y: Multivector) -> None:
    """TypeError unless both are Multivectors, as the operators raise; then the dimension check."""
    if not (isinstance(x, Multivector) and isinstance(y, Multivector)):
        raise TypeError(
            f"operands must be Multivectors, got {type(x).__name__} and {type(y).__name__}"
        )
    x._check_dim(y)


def mv_product(x: Multivector, y: Multivector) -> Multivector:
    """Clifford product, extended bilinearly from blade_product."""
    _check_operands(x, y)
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
    """Lie bracket xy - yx."""
    return mv_product(x, y) - mv_product(y, x)


# --- textual rendering ------------------------------------------------------

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
