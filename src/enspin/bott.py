"""Cartan-Bott periodicity tables.

The isomorphism type of the real Clifford algebra C(R^n, q) is periodic
in n mod 8 up to a real matrix factor: C(R^{n+8}) = C(R^n) ⊗ M(16, R).
This module holds that period as one eight-row table of matrix-ring
summands.  The maximal semisimple compact Lie subalgebra is read off the
same row by the compact-form rule M(N,R) -> so(N), M(N,C) -> su(N),
M(N,H) -> sp(N), one summand per matrix summand.  The compact-type
dimension and rank formulas check computed closures against it.
"""

from __future__ import annotations

from typing import NamedTuple

RING_DIM = {"R": 1, "C": 2, "H": 4}


class _MatrixAlgebraFields(NamedTuple):
    summands: tuple[tuple[str, int], ...]
    tensor_size: int


class MatrixAlgebraDescriptor(_MatrixAlgebraFields):
    """One or two matrix-ring summands over R/C/H, tensored with M(t, R)."""

    __slots__ = ()

    def __new__(cls, summands: tuple[tuple[str, int], ...],
                tensor_size: int) -> MatrixAlgebraDescriptor:
        if len(summands) not in (1, 2):
            raise ValueError("descriptor must have one or two summands")
        for ring, size in summands:
            if ring not in RING_DIM:
                raise ValueError(f"unknown base ring {ring!r}")
            if size < 1 or tensor_size < 1:
                raise ValueError("matrix sizes must be positive")
        return super().__new__(cls, summands, tensor_size)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)

    def real_dimension(self) -> int:
        return sum(m * m * RING_DIM[ring] for ring, m in self.summands) * self.tensor_size ** 2

    def __str__(self) -> str:
        def part(ring: str, m: int) -> str:
            return ring if m == 1 else f"M({m},{ring})"

        body = " ⊕ ".join(part(r, m) for r, m in self.summands)
        if self.tensor_size == 1:
            return body
        if len(self.summands) == 2:
            body = f"({body})"
        return f"{body} ⊗ M({self.tensor_size},R)"

    def to_json(self) -> dict:
        return {
            "summands": [{"ring": r, "size": m} for r, m in self.summands],
            "tensor_size": self.tensor_size,
            "real_dimension": self.real_dimension(),
            "display": str(self),
        }


class _CompactTypeFields(NamedTuple):
    family: str
    param: int
    summands: int = 1


class CompactTypeDescriptor(_CompactTypeFields):
    """A compact Lie algebra type: so/su/sp/u(N), possibly two equal summands."""

    __slots__ = ()

    def __new__(cls, family: str, param: int, summands: int = 1) -> CompactTypeDescriptor:
        if family not in ("so", "su", "sp", "u"):
            raise ValueError(f"unknown family {family!r}")
        if param < 1 or summands not in (1, 2):
            raise ValueError("bad compact type parameters")
        return super().__new__(cls, family, param, summands)

    @classmethod
    def _make(cls, fields):  # _replace builds through _make: validate there too
        return cls(*fields)

    def dimension(self) -> int:
        N = self.param
        per = {
            "so": N * (N - 1) // 2,
            "su": N * N - 1,
            "sp": N * (2 * N + 1),
            "u": N * N,
        }[self.family]
        return per * self.summands

    def rank(self) -> int:
        N = self.param
        per = {"so": N // 2, "su": N - 1, "sp": N, "u": N}[self.family]
        return per * self.summands

    def center_dim(self) -> int:
        """One central dimension per u summand, none for the semisimple families."""
        return self.summands if self.family == "u" else 0

    def __str__(self) -> str:
        one = f"{self.family}({self.param})"
        return " ⊕ ".join([one] * self.summands)

    def to_json(self) -> dict:
        return {**self._asdict(), "dimension": self.dimension(), "rank": self.rank(),
                "display": str(self)}


#: C(R^{r}) for r = n mod 8, as matrix-ring summands (ring, size).
PERIOD_TABLE: tuple[tuple[tuple[str, int], ...], ...] = (
    (("R", 1),),
    (("R", 1), ("R", 1)),
    (("R", 2),),
    (("C", 2),),
    (("H", 2),),
    (("H", 2), ("H", 2)),
    (("H", 4),),
    (("C", 8),),
)

#: Compact family of the unitary Lie algebra of M(m, ring), semisimple part.
COMPACT_FAMILY = {"R": "so", "C": "su", "H": "sp"}


def bott_algebra(n: int) -> MatrixAlgebraDescriptor:
    """Isomorphism type of C(R^n, q): row r = n mod 8 tensored with M(2^((n-r)/2), R)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    r = n % 8
    return MatrixAlgebraDescriptor(PERIOD_TABLE[r], 2 ** ((n - r) // 2))


def max_compact(n: int) -> CompactTypeDescriptor:
    """Maximal semisimple compact Lie subalgebra type of C(R^n, q).

    It is the compact form of bott_algebra(n): each summand M(m, K) ⊗
    M(t, R) = M(m t, K) contributes the semisimple part of its unitary
    algebra, so(mt), su(mt) or sp(mt) for K = R, C, H.
    """
    alg = bott_algebra(n)
    ring, size = alg.summands[0]
    return CompactTypeDescriptor(
        COMPACT_FAMILY[ring], size * alg.tensor_size, summands=len(alg.summands)
    )


def closure_type(n: int) -> CompactTypeDescriptor:
    """Type of the spin image: max_compact(n), except u(2) at n = 3, where the
    top blade v1v2v3 is a generator and spans a center."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return CompactTypeDescriptor("u", 2) if n == 3 else max_compact(n)
