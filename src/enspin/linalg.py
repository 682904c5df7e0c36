"""Exact linear algebra over Q and over prime fields.

Everything here is deterministic and exact.  Over Q there is one
elimination, a sparse reduced-echelon basis over ``Fraction`` with
incremental sifting; kernel dimensions and the leading-minor test for
definiteness both run on it.  Over prime fields there is a fast mod-p
elimination used as a one-sided rank probe (rank mod p <= rational
rank, hence kernel mod p >= rational kernel).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

Coeff = Union[int, Fraction]
MatrixLike = Sequence[Sequence[Coeff]]

#: Probing primes for modular rank certificates.  All three sit just
#: around 2^21 so the blocked elimination can push its bulk updates
#: through float64 matrix products without ever rounding.
DEFAULT_PRIMES: tuple[int, ...] = (2_097_143, 2_097_133, 2_097_169)

#: Primes up to here take the BLAS-blocked elimination path.
_BLOCKED_PRIME_LIMIT = 1 << 23
_PANEL = 128


class RationalMatrix:
    """Dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: MatrixLike):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))


class EchelonBasis:
    """Reduced echelon basis over Q with sparse vectors.

    Coordinates are arbitrary non-negative integers below ``ambient``
    (for closure work they are blade masks, so ambient may be 2^n).
    Each stored vector has pivot entry 1, pivots strictly increasing,
    and pivot coordinates zero in every other vector.
    """

    def __init__(self, ambient: int):
        if ambient < 1:
            raise ValueError("ambient length must be >= 1")
        self.ambient = ambient
        self._rows: list[tuple[int, dict[int, Fraction]]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _to_sparse(self, v: Union[Mapping[int, Coeff], Sequence[Coeff]]) -> dict[int, Fraction]:
        if isinstance(v, Mapping):
            out = {int(k): Fraction(c) for k, c in v.items() if c}
        else:
            if len(v) != self.ambient:
                raise ValueError(f"vector length {len(v)} != ambient {self.ambient}")
            out = {i: Fraction(c) for i, c in enumerate(v) if c}
        for k in out:
            if not 0 <= k < self.ambient:
                raise ValueError(f"coordinate {k} outside ambient {self.ambient}")
        return out

    def reduce(self, v: Union[Mapping[int, Coeff], Sequence[Coeff]]) -> dict[int, Fraction]:
        """Residual of v after full reduction against the basis."""
        w = self._to_sparse(v)
        for pivot, row in self._rows:
            c = w.get(pivot)
            if c:
                for k, x in row.items():
                    acc = w.get(k, Fraction(0)) - c * x
                    if acc:
                        w[k] = acc
                    else:
                        w.pop(k, None)
        return w

    def contains(self, v: Union[Mapping[int, Coeff], Sequence[Coeff]]) -> bool:
        return not self.reduce(v)

    def sift(self, v: Union[Mapping[int, Coeff], Sequence[Coeff]]) -> bool:
        """Reduce v against the basis; absorb a nonzero residual.

        Returns True iff the span grew (by exactly the line of v).
        """
        w = self.reduce(v)
        if not w:
            return False
        pivot = min(w)
        inv = 1 / w[pivot]
        w = {k: c * inv for k, c in w.items()}
        for _, row in self._rows:
            c = row.get(pivot)
            if c:
                for k, x in w.items():
                    acc = row.get(k, Fraction(0)) - c * x
                    if acc:
                        row[k] = acc
                    else:
                        row.pop(k, None)
        insort(self._rows, (pivot, w), key=lambda r: r[0])
        return True


def kernel_dimension(m: Union[RationalMatrix, MatrixLike]) -> int:
    """cols - rank over Q, sifting the rows into an EchelonBasis."""
    rows = m.entries if isinstance(m, RationalMatrix) else m
    cols = len(rows[0]) if len(rows) else 0
    if not cols:
        return 0
    basis = EchelonBasis(cols)
    for row in rows:
        basis.sift(row)
    return cols - basis.rank


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all p < 3.3e24."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def kernel_dimension_mod_p(m, p: int) -> int:
    """Kernel dimension of an integer matrix reduced mod p.

    One-sided: rank mod p <= rational rank, so the result is an upper
    bound certificate candidate for the rational kernel dimension only
    when it matches across independent primes.

    Primes below 2^23 go through a panel-blocked elimination whose bulk
    updates are float64 matrix products (exact: a panel-width dot of
    residues stays under 2^53).  Larger primes fall back to plain int64
    elimination with delayed reduction.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    n_rows, n_cols = a.shape
    if n_rows == 0 or n_cols == 0:
        return n_cols
    a = a % p
    if p <= _BLOCKED_PRIME_LIMIT:
        return n_cols - _rank_mod_p_blocked(a, p)
    return n_cols - _rank_mod_p_plain(a, p)


def _rank_mod_p_blocked(a: np.ndarray, p: int, block: int = _PANEL) -> int:
    """Right-looking blocked elimination; a must be reduced mod p already.

    Panel columns are eliminated with int64 updates (reduction deferred
    to panel end: at most block steps of +-(p-1)^2 each, far below
    2^63), multipliers stay in place below each pivot, and the trailing
    submatrix takes one exact float64 GEMM plus one reduction per panel.
    """
    n_rows, n_cols = a.shape
    r = 0
    for c0 in range(0, n_cols, block):
        if r == n_rows:
            break
        c1 = min(c0 + block, n_cols)
        r0 = r
        piv_cols: list[int] = []
        invs: list[int] = []
        for c in range(c0, c1):
            if r == n_rows:
                break
            a[r:, c] %= p
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                a[[r, piv], :] = a[[piv, r], :]
            a[r, c:c1] %= p
            inv = pow(int(a[r, c]), -1, p)
            a[r, c:c1] = a[r, c:c1] * inv % p
            if r + 1 < n_rows and c + 1 < c1:
                f = a[r + 1:, c]
                if np.any(f):
                    a[r + 1:, c + 1:c1] -= f[:, None] * a[r, c + 1:c1][None, :]
            piv_cols.append(c)
            invs.append(inv)
            r += 1
        if not piv_cols or c1 == n_cols:
            continue
        r1 = r0 + len(piv_cols)
        # finish the pivot rows right of the panel by forward substitution
        for j in range(len(piv_cols)):
            row = r0 + j
            if j:
                fj = a[row, piv_cols[:j]]
                if np.any(fj):
                    a[row, c1:] -= fj @ a[r0:row, c1:]
            a[row, c1:] = a[row, c1:] % p * invs[j] % p
        # one exact GEMM clears the panel's contribution below it
        if r1 < n_rows:
            g = a[r1:, piv_cols]
            if np.any(g):
                upd = (g.astype(np.float64) @ a[r0:r1, c1:].astype(np.float64)).astype(np.int64)
                a[r1:, c1:] -= upd
            a[r1:, c1:] %= p
    return r


def _rank_mod_p_plain(a: np.ndarray, p: int) -> int:
    """Unblocked int64 elimination for primes too big for exact float64.

    Entries grow by at most (p-1)^2 per deferred update step, so the
    bulk submatrix is reduced every few steps to stay below 2^63.
    """
    n_rows, n_cols = a.shape
    reduce_every = max(1, min(int((2 ** 62) // ((p - 1) ** 2 + 1)), 1024))
    r = 0
    since_reduce = 0
    for c in range(n_cols):
        a[r:, c] %= p
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], :] = a[[piv, r], :]
        a[r, c:] %= p
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        if r + 1 < n_rows and c + 1 < n_cols:
            f = a[r + 1:, c]
            if np.any(f):
                a[r + 1:, c + 1:] -= f[:, None] * a[r, c + 1:][None, :]
                since_reduce += 1
                if since_reduce >= reduce_every:
                    a[r + 1:, c + 1:] %= p
                    since_reduce = 0
        r += 1
        if r == n_rows:
            break
    return r


def is_negative_definite(m: Union[RationalMatrix, MatrixLike]) -> bool:
    """Exact Sylvester test: D_{k+1} / D_k < 0 for every leading principal minor D_k.

    Row k is reduced against rows 0..k-1 held in an EchelonBasis whose
    pivots, by induction, sit at columns 0..k-1.  The residual is row k
    minus a combination of the rows above it, so it is zero left of
    column k, and replacing row k of the leading (k+1)-block by it keeps
    the determinant: D_{k+1} = D_k * residual[k].  The form is negative
    definite iff (-1)^k D_k > 0 for all k (D_0 = 1), that is iff every
    such pivot is < 0; a zero or positive pivot fails at once, and a
    negative one makes column k the next pivot of the basis.
    """
    mat = m if isinstance(m, RationalMatrix) else RationalMatrix(m)
    if not mat.is_symmetric():
        raise ValueError("matrix is not symmetric")
    basis = EchelonBasis(max(mat.rows, 1))
    for k, row in enumerate(mat.entries):
        residual = basis.reduce(row)
        if residual.get(k, 0) >= 0:
            return False
        basis.sift(residual)
    return True
