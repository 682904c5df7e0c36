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

from dataclasses import dataclass

from .deltas import lower_bound_dim

RING_DIM = {"R": 1, "C": 2, "H": 4}


@dataclass(frozen=True)
class MatrixAlgebraDescriptor:
    """One or two matrix-ring summands over R/C/H, tensored with M(t, R)."""

    summands: tuple[tuple[str, int], ...]
    tensor_size: int

    def __post_init__(self) -> None:
        if len(self.summands) not in (1, 2):
            raise ValueError("descriptor must have one or two summands")
        for ring, size in self.summands:
            if ring not in RING_DIM:
                raise ValueError(f"unknown base ring {ring!r}")
            if size < 1 or self.tensor_size < 1:
                raise ValueError("matrix sizes must be positive")

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


@dataclass(frozen=True)
class CompactTypeDescriptor:
    """A compact Lie algebra type: so/su/sp/u(N), possibly two equal summands."""

    family: str
    param: int
    summands: int = 1

    def __post_init__(self) -> None:
        if self.family not in ("so", "su", "sp", "u"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.param < 1 or self.summands not in (1, 2):
            raise ValueError("bad compact type parameters")

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

    def __str__(self) -> str:
        one = f"{self.family}({self.param})"
        return " ⊕ ".join([one] * self.summands)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "param": self.param,
            "summands": self.summands,
            "dimension": self.dimension(),
            "rank": self.rank(),
            "display": str(self),
        }


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


def expected_dim(n: int) -> int:
    """Dimension of the expected compact type; equals lower_bound_dim(n) for n >= 4."""
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    return max_compact(n).dimension()


def expected_rank(n: int) -> int:
    """Rank of the expected compact type."""
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    return max_compact(n).rank()


def dims_agree(n: int) -> bool:
    """Cross-check: type dimension equals the blade-count lower bound."""
    return expected_dim(n) == lower_bound_dim(n)
