"""Lie-theoretic identification of blade closures, on masks alone.

Every bracket of two basis blades is zero or +-2 times the XOR blade,
so center, derived algebra, Killing form, rank and the two-ideal split
are all mask combinatorics.  analyze runs only the mask-native core on
the closure that blade_closure proves bracket-closed: a partner sweep,
one Walsh-Hadamard transform, whose blades without a partner span the
center and whose other blades span the derived algebra; the diagonal
Killing form K_ii = 4 b_i^2 partners_i; a greedy torus of commuting
blades that is its own centralizer by construction (rank); and the
central idempotents (1 +- omega)/2 for the split, certified by O(d)
checks on the masks.  Each function of the core states its proof in
its docstring.

The dense structure table, the mod-p rank probe (rank_trials,
rank_estimate), the leading-minor Killing test and the Fraction split
(split_check_fractions) are kept as independent test oracles; no
verify path calls them.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bott import CompactTypeDescriptor, max_compact
from .clifford import Blade, Multivector, blade_product, bracket, mv_product
from .closure import ClosureBasis, blade_closure
from .linalg import (
    DEFAULT_PRIMES,
    EchelonBasis,
    RationalMatrix,
    is_negative_definite,
    kernel_dimension_mod_p,
)
from .spinrep import spin_generators


@dataclass(frozen=True)
class StructureConstants:
    """Single-target bracket table: [b_i, b_j] = coeffs[i,j] * b_targets[i,j].

    targets holds -1 and coeffs holds 0 where the bracket vanishes.
    xor_structured marks tables built from a blade closure, where the
    target mask is always mask_i ^ mask_j; a few routines have fast
    paths that are only valid under that shape.
    """

    d: int
    targets: np.ndarray
    coeffs: np.ndarray
    xor_structured: bool = False

    @classmethod
    def from_table(cls, targets, coeffs) -> "StructureConstants":
        t = np.asarray(targets, dtype=np.int32)
        c = np.asarray(coeffs, dtype=np.int64)
        if t.shape != c.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("targets and coeffs must be equal square matrices")
        return cls(d=t.shape[0], targets=t, coeffs=c)

    def entry(self, i: int, j: int) -> tuple[int, int] | None:
        """(target index, coefficient) of [b_i, b_j], or None when zero."""
        if self.coeffs[i, j] == 0:
            return None
        return int(self.targets[i, j]), int(self.coeffs[i, j])


def structure_constants(basis: ClosureBasis) -> StructureConstants:
    """Tabulate all pairwise brackets of a closed blade basis.

    Row at a time, vectorized: the reordering count t(a, b) is summed
    bit-by-bit over a, the anticommutation test is the parity of
    |a||b| - |a & b|, and a bracket target outside the basis raises.
    """
    masks = np.array(basis.masks, dtype=np.int64)
    d = len(masks)
    n = basis.n
    pos = np.full(1 << n, -1, dtype=np.int32)
    pos[masks] = np.arange(d, dtype=np.int32)
    pc = np.bitwise_count(masks).astype(np.int16)

    targets = np.full((d, d), -1, dtype=np.int32)
    coeffs = np.zeros((d, d), dtype=np.int8)
    for i in range(d):
        m = int(masks[i])
        pm = m.bit_count()
        inter = np.bitwise_count(masks & m)
        anti = ((np.uint8(pm & 1) & (pc & 1).astype(np.uint8)) ^ (inter & np.uint8(1))).astype(bool)
        if not np.any(anti):
            continue
        others = masks[anti]
        # t(m, b) = sum over set bits i of m of |{j in b : j < i}|
        t_par = np.zeros(others.shape, dtype=np.int64)
        mm = m
        while mm:
            low = mm & -mm
            t_par += np.bitwise_count(others & (low - 1))
            mm ^= low
        sign = np.where(t_par & 1, -2, 2).astype(np.int8)
        tmask = others ^ m
        tgt = pos[tmask]
        if np.any(tgt < 0):
            bad = int(tmask[tgt < 0][0])
            raise ValueError(f"basis not closed: bracket target {bad:#x} missing")
        targets[i, anti] = tgt
        coeffs[i, anti] = sign
    return StructureConstants(d=d, targets=targets, coeffs=coeffs, xor_structured=True)


def bracket_coords(sc: StructureConstants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of [x, y] for integer coordinate vectors x, y."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros(sc.d, dtype=np.int64)
    ii, jj = np.nonzero(sc.coeffs)
    vals = x[ii] * y[jj] * sc.coeffs[ii, jj].astype(np.int64)
    np.add.at(out, sc.targets[ii, jj], vals)
    return out


def ad_matrix(sc: StructureConstants, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) acting on coordinate columns, as int64."""
    x = np.asarray(x, dtype=np.int64)
    d = sc.d
    a = np.zeros((d, d), dtype=np.int64)
    ii, jj = np.nonzero(sc.coeffs)
    vals = x[ii] * sc.coeffs[ii, jj].astype(np.int64)
    np.add.at(a.ravel(), sc.targets[ii, jj].astype(np.int64) * d + jj, vals)
    return a


def antisymmetry_holds(sc: StructureConstants) -> bool:
    c = sc.coeffs
    t = sc.targets
    if not np.array_equal(c, -c.T):
        return False
    both = (c != 0) & (c.T != 0)
    return bool(np.all(t[both] == t.T[both])) and bool(np.all(c.diagonal() == 0))


def table_jacobi_holds(sc: StructureConstants, *, samples: int = 2000, seed: int = 0) -> bool:
    """[[i,j],k] + [[j,k],i] + [[k,i],j] = 0, exhaustively for d <= 50."""

    def term(i: int, j: int, k: int, acc: dict[int, int]) -> None:
        c1 = int(sc.coeffs[i, j])
        if c1 == 0:
            return
        t1 = int(sc.targets[i, j])
        c2 = int(sc.coeffs[t1, k])
        if c2 == 0:
            return
        t2 = int(sc.targets[t1, k])
        acc[t2] = acc.get(t2, 0) + c1 * c2

    def triple_ok(i: int, j: int, k: int) -> bool:
        acc: dict[int, int] = {}
        term(i, j, k, acc)
        term(j, k, i, acc)
        term(k, i, j, acc)
        return all(v == 0 for v in acc.values())

    d = sc.d
    if d <= 50:
        return all(
            triple_ok(i, j, k)
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(j + 1, d)
        )
    rng = random.Random(seed)
    return all(
        triple_ok(rng.randrange(d), rng.randrange(d), rng.randrange(d))
        for _ in range(samples)
    )


def killing_diagonal(sc: StructureConstants) -> np.ndarray:
    """Diagonal K_ii = sum_k c_ik * c_{i, t_ik}, as int64."""
    out = np.zeros(sc.d, dtype=np.int64)
    ii, kk = np.nonzero(sc.coeffs)
    back = sc.coeffs[ii, sc.targets[ii, kk]].astype(np.int64)
    np.add.at(out, ii, sc.coeffs[ii, kk].astype(np.int64) * back)
    return out


def killing_entry(sc: StructureConstants, i: int, j: int) -> int:
    """Trace of ad b_i composed with ad b_j, straight from the table."""
    ks = np.nonzero(sc.coeffs[j])[0]
    if ks.size == 0:
        return 0
    t1 = sc.targets[j, ks]
    c2 = sc.coeffs[i, t1].astype(np.int64)
    closes = (c2 != 0) & (sc.targets[i, t1] == ks)
    return int(np.sum(sc.coeffs[j, ks].astype(np.int64)[closes] * c2[closes]))


def killing_form(sc: StructureConstants) -> RationalMatrix:
    """Full Killing matrix; diagonal by the XOR-translation argument.

    For a blade table ad b_i o ad b_j shifts mask_k by mask_i ^ mask_j,
    a fixed-point-free permutation of the basis when i != j, so only the
    diagonal survives.  Assembled here from the computed diagonal.
    """
    if not sc.xor_structured:
        entries = [[killing_entry(sc, i, j) for j in range(sc.d)] for i in range(sc.d)]
        return RationalMatrix(entries)
    diag = killing_diagonal(sc)
    entries = [
        [Fraction(int(diag[i])) if i == j else Fraction(0) for j in range(sc.d)]
        for i in range(sc.d)
    ]
    return RationalMatrix(entries)


def killing_negative_definite_check(sc: StructureConstants) -> tuple[bool, str]:
    """Definiteness of the table's Killing form by the exact leading-minor test.

    A test oracle for the mask-native Killing certificate: it assembles
    the full form and runs the Sylvester leading-minor test over Q.
    """
    ok = is_negative_definite(killing_form(sc))
    return ok, f"exact leading-minor test, d={sc.d}"


def center_dim(sc: StructureConstants) -> int:
    """Dimension of the centralizer of the whole table.

    For XOR-structured tables the constraint system decouples (targets
    are injective per column), so the center is spanned by the basis
    vectors whose coefficient row vanishes.  Other tables fall back to
    sifting one constraint row per (column, target) group.
    """
    if sc.xor_structured:
        return int(np.sum(~np.any(sc.coeffs != 0, axis=1)))
    constraints = EchelonBasis(sc.d)
    for j in range(sc.d):
        groups: dict[int, dict[int, int]] = {}
        for i in np.nonzero(sc.coeffs[:, j])[0]:
            t = int(sc.targets[i, j])
            groups.setdefault(t, {})[int(i)] = int(sc.coeffs[i, j])
        for row in groups.values():
            constraints.sift(row)
    return sc.d - constraints.rank


def derived_dim(sc: StructureConstants) -> int:
    """Dimension of the span of all brackets (single-target tables)."""
    nz = sc.coeffs != 0
    if not np.any(nz):
        return 0
    return int(np.unique(sc.targets[nz]).size)


@dataclass(frozen=True)
class RankTrial:
    trial: int
    kernel_by_prime: dict[int, int]

    @property
    def minimum(self) -> int:
        return min(self.kernel_by_prime.values())


def rank_trials(
    sc: StructureConstants,
    trials: int = 5,
    *,
    seed: int = 0,
    primes=DEFAULT_PRIMES,
) -> list[RankTrial]:
    """Kernel dimensions of ad(x) for random integer x, per trial and prime."""
    rng = random.Random(seed)
    log: list[RankTrial] = []
    for t in range(trials):
        x = np.array([rng.randint(-9, 9) for _ in range(sc.d)], dtype=np.int64)
        while not np.any(x):
            x = np.array([rng.randint(-9, 9) for _ in range(sc.d)], dtype=np.int64)
        a = ad_matrix(sc, x)
        log.append(
            RankTrial(trial=t, kernel_by_prime={p: kernel_dimension_mod_p(a, p) for p in primes})
        )
    return log


def rank_estimate(
    sc: StructureConstants,
    trials: int = 5,
    *,
    seed: int = 0,
    primes=DEFAULT_PRIMES,
) -> int:
    """Minimum observed generic centralizer dimension (the rank, generically)."""
    return min(t.minimum for t in rank_trials(sc, trials, seed=seed, primes=primes))


@dataclass(frozen=True)
class SplitResult:
    """Eigenspace split under right multiplication by the top blade.

    exhaustive is True when every pair of eigenvectors is covered by the
    proof of split_check (the central idempotents (1 +- omega)/2), so no
    pair is left unchecked or sampled.
    """

    n: int
    applicable: bool
    reason: str = ""
    omega_central: bool | None = None
    omega_square: int | None = None
    dims: tuple[int, int] | None = None
    cross_vanishes: bool | None = None
    plus_closed: bool | None = None
    minus_closed: bool | None = None
    exhaustive: bool | None = None

    @property
    def passed(self) -> bool:
        return bool(
            self.applicable
            and self.omega_central
            and self.omega_square == 1
            and self.dims is not None
            and self.dims[0] == self.dims[1]
            and self.cross_vanishes
            and self.plus_closed
            and self.minus_closed
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "applicable": self.applicable,
            "reason": self.reason,
            "omega_central": self.omega_central,
            "omega_square": self.omega_square,
            "dims": list(self.dims) if self.dims is not None else None,
            "cross_vanishes": self.cross_vanishes,
            "plus_closed": self.plus_closed,
            "minus_closed": self.minus_closed,
            "exhaustive": self.exhaustive,
            "passed": self.passed,
        }


def _split_result(n: int, half: int, cross: bool, plus: bool, minus: bool) -> SplitResult:
    return SplitResult(
        n=n,
        applicable=True,
        omega_central=True,
        omega_square=1,
        dims=(half, half),
        cross_vanishes=cross,
        plus_closed=plus,
        minus_closed=minus,
        exhaustive=True,
    )


def split_check_fractions(basis: ClosureBasis) -> SplitResult:
    """Test oracle for split_check: omega and every pair bracketed as exact multivectors.

    Off n == 1 mod 4 it returns split_check's answer, which depends on n
    alone there.
    """
    n = basis.n
    if n % 4 != 1:
        return split_check(basis)
    full = (1 << n) - 1
    omega = Multivector({full: 1}, n)
    omega_sq = 1 if mv_product(omega, omega) == Multivector.scalar(1, n) else -1
    central = all(bracket(Multivector({m: 1}, n), omega).is_zero() for m in basis.masks)
    if omega_sq != 1 or not central:
        return SplitResult(n=n, applicable=True, omega_central=central, omega_square=omega_sq,
                           reason="top blade failed centrality or square check")
    mask_set = set(basis.masks)
    missing = [m for m in basis.masks if full ^ m not in mask_set]
    if missing:
        return SplitResult(n=n, applicable=True, omega_central=True, omega_square=1,
                           reason=f"complement of {missing[0]:#x} missing from basis")

    plus: list[Multivector] = []
    minus: list[Multivector] = []
    for m in basis.masks:
        if m < full ^ m:
            s = blade_product(Blade(m), Blade(full)).sign
            plus.append(Multivector({m: 1, full ^ m: s}, n))
            minus.append(Multivector({m: 1, full ^ m: -s}, n))

    def eigen_ok(z: Multivector, val: int) -> bool:
        return z.is_zero() or mv_product(z, omega) == z.scale(val)

    half = len(plus)
    same_pairs = [(i, j) for i in range(half) for j in range(i + 1, half)]
    cross = all(bracket(p, m).is_zero() for p in plus for m in minus)
    p_closed = all(eigen_ok(bracket(plus[i], plus[j]), 1) for i, j in same_pairs)
    m_closed = all(eigen_ok(bracket(minus[i], minus[j]), -1) for i, j in same_pairs)
    return _split_result(n, half, cross, p_closed, m_closed)


# --- the mask-native core: everything analyze runs ------------------------

def _anticommute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean array: the blades a and b anticommute (|a||b| - |a & b| odd)."""
    pa = np.bitwise_count(a) & 1
    pb = np.bitwise_count(b) & 1
    return ((pa & pb) ^ (np.bitwise_count(a & b) & 1)).astype(bool)


def _walsh_hadamard(a) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a length-2^n array, as a new int64 array.

    Entry u of the result is sum over x of a(x) (-1)^|u & x|.  Applying
    it twice multiplies by 2^n.  One butterfly pass per bit, so O(n 2^n)
    additions.
    """
    out = np.array(a, dtype=np.int64)
    size = out.size
    h = 1
    while h < size:
        v = out.reshape(size // (2 * h), 2, h)
        low = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        np.subtract(low, v[:, 1, :], out=v[:, 1, :])
        h *= 2
    return out


def partner_sweep(basis: ClosureBasis) -> np.ndarray:
    """Anticommuting-partner count of each blade of a bracket-closed basis.

    Partners: a and y commute up to (-1)^q(a, y) with
    q(a, y) = p_a p_y + |a & y| mod 2 and p the grade parity, which is
    (-1)^|h_a & y| with h_a = a for even |a| and h_a = a ^ full for odd
    |a| (then p_y + |a & y| = |y| - |a & y| mod 2).  Summed over the
    basis S that is S^(h_a), the transform of its membership array, so
    a has (|S| - S^(h_a)) / 2 partners.

    Center: for a fixed t the map i -> i ^ t is injective, so in
    [x, b_t] = sum over i anticommuting with t of x_i [b_i, b_t] every
    term lands on its own blade, and [x, b_t] = 0 forces x_i = 0.  Hence
    the center is spanned by the blades with no partner.

    Derived algebra: it is spanned by the brackets [b_x, b_y] = +-2 b_(x ^ y)
    of anticommuting pairs, and distinct blades are independent, so it
    is spanned by the blades c = x ^ y.  These are exactly the blades of
    S with a partner, because q is bilinear over F_2 with q(a, a) = 0:
    - if c in S has a partner x, then y = x ^ c is in S by closure, and
      q(x, y) = q(x, x) + q(x, c) = 1, so c = x ^ y is a bracket;
    - if c = x ^ y with q(x, y) = 1, then c is in S by closure, and
      q(x, c) = q(x, x) + q(x, y) = 1, so x is a partner of c.
    So the derived dimension is d minus the center dimension.
    """
    n = basis.n
    masks = np.array(basis.masks, dtype=np.int64)
    present = np.zeros(1 << n, dtype=bool)
    present[masks] = True
    s_hat = _walsh_hadamard(present)
    h = np.where(np.bitwise_count(masks) & 1, masks ^ ((1 << n) - 1), masks)
    return (len(masks) - s_hat[h]) // 2


def mask_killing_diagonal(masks, partners: np.ndarray) -> np.ndarray:
    """Killing form of a blade basis, which is diagonal: K_ii = 4 b_i^2 partners_i.

    Off the diagonal: for i != j, ad b_i o ad b_j sends each b_k to a
    multiple of b_{k ^ mask_i ^ mask_j}, a translation of the masks by a
    nonzero XOR, so no basis blade maps to itself and the trace is 0.  On
    the diagonal, [b_i, [b_i, b_k]] = 4 b_i^2 b_k when b_k anticommutes
    with b_i and 0 otherwise.  The square b_i^2 = (-1)^(k(k-1)/2) for a
    blade of grade k is computed here, not assumed.  So the form is
    negative definite exactly when every entry is below 0.
    """
    grade = np.bitwise_count(np.asarray(masks, dtype=np.int64)).astype(np.int64)
    square = 1 - 2 * ((grade * (grade - 1) // 2) & 1)
    return 4 * square * np.asarray(partners, dtype=np.int64)


def is_compact_basis(masks) -> bool:
    """True when every blade has reverse -b, which makes the algebra compact.

    Left multiplication x -> L_x is a faithful representation of the
    algebra on C(R^n) (L_x 1 = x).  In the orthonormal blade basis the
    transpose of L_b is L_{reverse(b)}, and a blade of grade k has
    reverse (-1)^(k(k-1)/2) b, which is -b for k == 2, 3 mod 4.  So every
    element acts as a skew-symmetric matrix and the algebra embeds in
    so(2^n).  This holds at n = 3 as well, where the Killing form is
    degenerate.
    """
    grade = np.bitwise_count(np.asarray(masks, dtype=np.int64)) % 4
    return bool(np.all((grade == 2) | (grade == 3)))


def greedy_torus(masks) -> tuple[int, ...]:
    """A maximal abelian set of blades, kept greedily in the given order.

    One pass over a shrinking candidate array: keep the first candidate
    t, then keep as candidates only the remaining masks that commute
    with t.  The output T is a torus by construction, for any list of
    distinct masks:

    (a) T is abelian: each kept blade survived the filter of every blade
        kept before it, so it commutes with all of them.
    (b) Every mask not in T was removed by a kept blade it anticommutes
        with.  If x = sum x_i b_i commutes with span(T), then for each t
        in T the terms of [x, b_t] = sum x_i [b_i, b_t] over the b_i
        anticommuting with t land on distinct blades b_{i ^ t} (the
        injectivity argument of partner_sweep), so all those x_i are 0.
        Hence the centralizer of span(T) is span(T) itself, and T is
        maximal abelian.
    (c) When is_compact_basis holds as well, a maximal abelian
        subalgebra of the compact algebra is a Cartan subalgebra
        (Knapp, Lie Groups Beyond an Introduction, ch. IV), so the rank
        is |T|.

    The filter runs over rest[1:]: t commutes with itself, so a filter
    over all of rest would keep t as a candidate forever.
    """
    rest = np.asarray(masks, dtype=np.int64)
    torus: list[int] = []
    while rest.size:
        t = rest[0]
        torus.append(int(t))
        rest = rest[1:][~_anticommute(rest[1:], t)]
    return tuple(torus)


def split_check(basis: ClosureBasis, *, seed: int = 0) -> SplitResult:
    """Certify the split of the closure into the two top-blade eigenspaces.

    Premise: the basis is bracket-closed.  analyze passes the output of
    blade_closure, whose breadth-first-walk proof makes it so.

    Proof of the split: when omega = v1...vn is central with omega^2 = 1,
    p = (1 + omega)/2 and q = (1 - omega)/2 are central idempotents with
    p + q = 1 and pq = 0.  The basis is closed under m -> m ^ full, and
    right multiplication by omega sends e_m to s_m e_{m ^ full}, so
    x -> xp and x -> xq map the algebra onto the two eigenspaces, and
    [xp, yq] = [x, y]pq = 0.  Each eigenspace is therefore an ideal, and
    the pairs e_m +- s_m e_{m ^ full}, one per complement pair, give both
    of them dimension d/2.

    So the certificate is its three preconditions, each an O(d) check:
    omega^2 by blade_product, centrality as no blade anticommuting with
    the top blade, and closure under complement as membership of
    masks ^ full in masks.  When they hold, the proof covers every pair
    of eigenvectors at once.  seed is accepted for compatibility and
    ignored: nothing is sampled.
    """
    n = basis.n
    if n % 2 == 0:
        return SplitResult(n=n, applicable=False, reason="top blade is not central for even n")
    full = (1 << n) - 1
    omega_sq = blade_product(Blade(full), Blade(full)).sign
    if omega_sq != 1:
        return SplitResult(n=n, applicable=False, reason="top blade squares to -1 when n == 3 mod 4")

    masks = np.array(basis.masks, dtype=np.int64)
    if np.any(_anticommute(masks, np.int64(full))):
        return SplitResult(n=n, applicable=True, omega_central=False, omega_square=omega_sq,
                           reason="top blade failed centrality or square check")
    missing = ~np.isin(masks ^ full, masks)
    if np.any(missing):
        m = int(masks[np.argmax(missing)])
        return SplitResult(n=n, applicable=True, omega_central=True, omega_square=1,
                           reason=f"complement of {m:#x} missing from basis")
    return _split_result(n, len(masks) // 2, True, True, True)


@contextmanager
def stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Record the wall time of the with-block in timings[name], in ms."""
    t0 = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t0) * 1000.0


@dataclass
class AnalysisBundle:
    """Everything the classifier and the verifier share for one n."""

    n: int
    basis: ClosureBasis
    center: int
    killing_diag: np.ndarray
    killing_ok: bool
    killing_detail: str
    torus: tuple[int, ...]
    rank_certified: bool
    split: SplitResult
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def derived(self) -> int:
        return self.basis.dim - self.center

    @property
    def rank(self) -> int:
        return len(self.torus)

    @property
    def killing_mode(self) -> str:
        return "exact"


def analyze(
    n: int,
    *,
    seed: int = 0,
    allow_large: bool = False,
    exact_killing: bool | None = None,
) -> AnalysisBundle:
    """Run the full invariant battery for one ambient dimension, on masks only.

    The closure is bracket-closed by the proof of blade_closure, which
    every later stage takes as its premise; the derived dimension is
    d minus the center (partner_sweep).  Every check is a deterministic
    certificate, so seed is accepted and ignored, and exact_killing may
    be True or None but not False.
    """
    if n < 3:
        raise ValueError(f"analysis needs n >= 3, got {n}")
    if exact_killing is False:
        raise ValueError("the probabilistic Killing mode is retired; the Killing check is always exact")
    timings: dict[str, float] = {}
    with stage(timings, "closure"):
        basis = blade_closure(n, spin_generators(n).masks, allow_large=allow_large)
    with stage(timings, "structure"):
        partners = partner_sweep(basis)
    with stage(timings, "center"):
        center = int(np.count_nonzero(partners == 0))
    with stage(timings, "killing"):
        diag = mask_killing_diagonal(basis.masks, partners)
        bad = int(np.count_nonzero(diag >= 0))
        if bad:
            killing_detail = f"diagonal, K_ii >= 0 for {bad} of d={basis.dim} blades"
        else:
            killing_detail = f"diagonal, K_ii = -4 x anticommuting partners < 0 for all d={basis.dim}"
    with stage(timings, "rank"):
        torus = greedy_torus(basis.masks)
        rank_certified = is_compact_basis(basis.masks)
    with stage(timings, "split"):
        split = split_check(basis)

    return AnalysisBundle(
        n=n,
        basis=basis,
        center=center,
        killing_diag=diag,
        killing_ok=not bad,
        killing_detail=killing_detail,
        torus=torus,
        rank_certified=rank_certified,
        split=split,
        timings_ms=timings,
    )


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    dim: int
    center_dim: int
    derived_dim: int
    rank: int
    killing_negative_definite: bool
    killing_mode: str
    split_dims: tuple[int, int] | None
    matched_type: CompactTypeDescriptor
    verdict: bool
    failures: tuple[str, ...]

    @property
    def display(self) -> str:
        return str(self.matched_type)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "center_dim": self.center_dim,
            "derived_dim": self.derived_dim,
            "rank": self.rank,
            "killing_negative_definite": self.killing_negative_definite,
            "killing_mode": self.killing_mode,
            "split_dims": list(self.split_dims) if self.split_dims else None,
            "matched_type": self.matched_type.to_json(),
            "display": self.display,
            "verdict": self.verdict,
            "failures": list(self.failures),
        }


def classify_bundle(bundle: AnalysisBundle) -> ClassificationResult:
    """Match computed invariants against the expected compact type."""
    n = bundle.n
    dim = bundle.basis.dim
    failures: list[str] = []

    if n == 3:
        matched = CompactTypeDescriptor(family="u", param=2, summands=1)
        if dim != 4:
            failures.append(f"dim {dim} != 4")
        if bundle.center != 1:
            failures.append(f"center {bundle.center} != 1")
        if bundle.derived != 3:
            failures.append(f"derived dim {bundle.derived} != 3")
        if bundle.rank != 2:
            failures.append(f"rank {bundle.rank} != 2")
        if not bundle.rank_certified:
            failures.append("torus is not a certified Cartan subalgebra")
    else:
        matched = max_compact(n)
        if dim != matched.dimension():
            failures.append(f"dim {dim} != {matched.dimension()}")
        if bundle.rank != matched.rank():
            failures.append(f"rank {bundle.rank} != {matched.rank()}")
        if not bundle.rank_certified:
            failures.append("torus is not a certified Cartan subalgebra")
        if not bundle.killing_ok:
            failures.append("Killing form not negative definite")
        if bundle.center != 0:
            failures.append(f"center {bundle.center} != 0")
        want_split = matched.summands == 2
        if bundle.split.applicable != want_split:
            failures.append("split applicability does not match summand count")
        if want_split:
            if not bundle.split.passed:
                failures.append(f"split check failed: {bundle.split.reason or 'ideal checks'}")
            elif bundle.split.dims is not None and sum(bundle.split.dims) != dim:
                failures.append("split dims do not sum to dim")

    return ClassificationResult(
        n=n,
        dim=dim,
        center_dim=bundle.center,
        derived_dim=bundle.derived,
        rank=bundle.rank,
        killing_negative_definite=bundle.killing_ok,
        killing_mode=bundle.killing_mode,
        split_dims=bundle.split.dims if bundle.split.applicable else None,
        matched_type=matched,
        verdict=not failures,
        failures=tuple(failures),
    )


def classify(
    n: int,
    *,
    seed: int = 0,
    allow_large: bool = False,
) -> ClassificationResult:
    """Compute invariants for one n and return the matched compact type."""
    bundle = analyze(n, seed=seed, allow_large=allow_large)
    return classify_bundle(bundle)
