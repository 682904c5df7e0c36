"""Exact linear algebra over Q and over prime fields.

Everything here is deterministic and exact.  Over Q there is one
elimination, a sparse reduced-echelon basis over ``Fraction`` with
incremental sifting; kernel dimensions and the leading-minor test for
definiteness both run on it.  Over prime fields there is one
panel-blocked mod-p elimination, for primes below 2^23, used as a
one-sided rank probe (rank mod p <= rational rank, hence kernel mod p
>= rational kernel); it is a test oracle, and it imports numpy when it
is called.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

Coeff = Union[int, Fraction]
MatrixLike = Sequence[Sequence[Coeff]]

#: Probing primes for modular rank certificates.  All three sit just
#: around 2^21 so the blocked elimination can push its bulk updates
#: through float64 matrix products without ever rounding.
DEFAULT_PRIMES: tuple[int, ...] = (2_097_143, 2_097_133, 2_097_169)

#: The largest modulus the mod-p elimination takes: below it a
#: panel-width dot of residues stays under 2^53, so the float64 matrix
#: products of the blocked elimination are exact.
_BLOCKED_PRIME_LIMIT = 1 << 23
_PANEL = 128


class EchelonBasis:
    """Reduced echelon basis over Q with sparse vectors.

    Coordinates are arbitrary non-negative integers below ``ambient``
    (for closure work they are blade masks, so ambient may be 2^n).
    Each stored vector is kept under its pivot, where its entry is 1,
    and every pivot coordinate is zero in every other vector.
    """

    def __init__(self, ambient: int):
        if ambient < 1:
            raise ValueError("ambient length must be >= 1")
        self.ambient = ambient
        self._rows: dict[int, dict[int, Fraction]] = {}

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
        """Residual of v after full reduction against the basis.

        Only the rows whose pivots appear in v are subtracted, in any
        order: each row is zero at every other pivot, so subtracting it
        clears its own pivot and leaves every other pivot coordinate alone.
        """
        w = self._to_sparse(v)
        for pivot in [k for k in w if k in self._rows]:
            c = w[pivot]
            for k, x in self._rows[pivot].items():
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
        for row in self._rows.values():
            c = row.get(pivot)
            if c:
                for k, x in w.items():
                    acc = row.get(k, Fraction(0)) - c * x
                    if acc:
                        row[k] = acc
                    else:
                        row.pop(k, None)
        self._rows[pivot] = w
        return True


def kernel_dimension(rows: MatrixLike) -> int:
    """cols - rank over Q, sifting the rows into an EchelonBasis.

    cols is the longest row, so a shorter row fails the basis's length
    check and ragged input raises ValueError.
    """
    cols = max(map(len, rows), default=0)
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

    One panel-blocked elimination, whose bulk updates are float64 matrix
    products; a prime above _BLOCKED_PRIME_LIMIT (2^23) would make them
    round, so it raises ValueError.
    """
    import numpy as np

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > _BLOCKED_PRIME_LIMIT:
        raise ValueError(f"{p} exceeds {_BLOCKED_PRIME_LIMIT}: the float64 products would round")
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    n_rows, n_cols = a.shape
    if n_rows == 0 or n_cols == 0:
        return n_cols
    return n_cols - _rank_mod_p_blocked(a % p, p)


def _rank_mod_p_blocked(a: np.ndarray, p: int) -> int:
    """Right-looking blocked elimination; a must be reduced mod p already.

    Panel columns are eliminated with int64 updates (reduction deferred
    to panel end: at most _PANEL steps of +-(p-1)^2 each, far below
    2^63), multipliers stay in place below each pivot, and the trailing
    submatrix takes one exact float64 GEMM plus one reduction per panel.
    """
    import numpy as np

    n_rows, n_cols = a.shape
    r = 0
    for c0 in range(0, n_cols, _PANEL):
        if r == n_rows:
            break
        c1 = min(c0 + _PANEL, n_cols)
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


def is_negative_definite(rows: MatrixLike) -> bool:
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
    d = len(rows)
    if any(len(row) != d for row in rows):
        raise ValueError("matrix is not square")
    if any(rows[i][j] != rows[j][i] for i in range(d) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    basis = EchelonBasis(max(d, 1))
    for k, row in enumerate(rows):
        residual = basis.reduce(row)
        if residual.get(k, 0) >= 0:
            return False
        basis.sift(residual)
    return True
