"""Dense-table and mod-p test oracles for the mask-native analysis core.

No command runs these.  The acceptance gate and the unit tests compare
enspin.analysis against them: the blade structure table
(StructureConstants, with its Killing form, center and derived
dimension read off the table), the exact leading-minor Killing test,
and the mod-p rank probe (rank_trials, rank_estimate).  The table and
the probe import numpy when they are called.  Keeping them here keeps
enspin.linalg out of every CLI start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .linalg import DEFAULT_PRIMES, is_negative_definite, kernel_dimension_mod_p

if TYPE_CHECKING:
    import numpy as np

    from .closure import ClosureBasis


class StructureConstants(NamedTuple):
    """Blade table of a closed blade basis: [b_i, b_j] = coeffs[i,j] * b_targets[i,j].

    targets holds -1 and coeffs holds 0 where the bracket vanishes.
    Elsewhere the target is the blade of mask_i ^ mask_j and the
    coefficient is +-2; killing_form and center_dim rest on that shape.
    """

    d: int
    targets: np.ndarray
    coeffs: np.ndarray


def structure_constants(basis: ClosureBasis) -> StructureConstants:
    """Tabulate all pairwise brackets of a closed blade basis.

    Row at a time, vectorized: the reordering count t(a, b) is summed
    bit-by-bit over a, the anticommutation test is the parity of
    |a||b| - |a & b|, and a bracket target outside the basis raises.
    """
    import numpy as np

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
    return StructureConstants(d=d, targets=targets, coeffs=coeffs)


def ad_matrix(sc: StructureConstants, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) acting on coordinate columns, as int64."""
    import numpy as np

    x = np.asarray(x, dtype=np.int64)
    d = sc.d
    a = np.zeros((d, d), dtype=np.int64)
    ii, jj = np.nonzero(sc.coeffs)
    vals = x[ii] * sc.coeffs[ii, jj].astype(np.int64)
    np.add.at(a.ravel(), sc.targets[ii, jj].astype(np.int64) * d + jj, vals)
    return a


def killing_diagonal(sc: StructureConstants) -> np.ndarray:
    """Diagonal K_ii = sum_k c_ik * c_{i, t_ik}, as int64."""
    import numpy as np

    out = np.zeros(sc.d, dtype=np.int64)
    ii, kk = np.nonzero(sc.coeffs)
    back = sc.coeffs[ii, sc.targets[ii, kk]].astype(np.int64)
    np.add.at(out, ii, sc.coeffs[ii, kk].astype(np.int64) * back)
    return out


def killing_form(sc: StructureConstants) -> list[list[int]]:
    """Full Killing matrix as d rows of ints, assembled from killing_diagonal.

    XOR translation: in a blade table ad b_i o ad b_j sends each b_k to
    a multiple of b_(k ^ mask_i ^ mask_j).  For i != j that translates
    the masks by a nonzero XOR, so no basis blade maps to itself, the
    trace is 0, and only the diagonal survives.
    """
    diag = killing_diagonal(sc).tolist()
    return [[diag[i] if i == j else 0 for j in range(sc.d)] for i in range(sc.d)]


def killing_negative_definite_check(sc: StructureConstants) -> tuple[bool, str]:
    """Definiteness of the table's Killing form by the exact leading-minor test.

    A test oracle for the mask-native Killing certificate: it assembles
    the full form and runs the Sylvester leading-minor test over Q.
    """
    ok = is_negative_definite(killing_form(sc))
    return ok, f"exact leading-minor test, d={sc.d}"


def center_dim(sc: StructureConstants) -> int:
    """Dimension of the centralizer of the whole table: the number of zero rows.

    Injective columns: in a blade table the nonzero entries of column j
    target the blades of mask_i ^ mask_j, distinct for distinct i.  So
    in [x, b_j] = sum x_i [b_i, b_j] every term lands on its own blade,
    [x, b_j] = 0 forces x_i = 0 wherever coeffs[i, j] != 0, and the
    center is spanned by the basis vectors whose row vanishes.
    """
    import numpy as np

    return int(np.sum(~np.any(sc.coeffs != 0, axis=1)))


def derived_dim(sc: StructureConstants) -> int:
    """Dimension of the span of all brackets: the number of distinct targets.

    Distinct blades are independent, so each target adds one dimension.
    """
    import numpy as np

    nz = sc.coeffs != 0
    if not np.any(nz):
        return 0
    return int(np.unique(sc.targets[nz]).size)


class RankTrial(NamedTuple):
    trial: int
    kernel_by_prime: dict[int, int]

    @property
    def minimum(self) -> int:
        return min(self.kernel_by_prime.values())


def rank_trials(sc: StructureConstants, trials: int = 5, *, seed: int = 0) -> list[RankTrial]:
    """Kernel dimensions of ad(x) for random integer x, per trial and prime.

    The primes are fixed: DEFAULT_PRIMES, three primes near 2^21.
    """
    import random

    import numpy as np

    rng = random.Random(seed)
    log: list[RankTrial] = []
    for t in range(trials):
        x = np.array([rng.randint(-9, 9) for _ in range(sc.d)], dtype=np.int64)
        while not np.any(x):
            x = np.array([rng.randint(-9, 9) for _ in range(sc.d)], dtype=np.int64)
        a = ad_matrix(sc, x)
        kernels = {p: kernel_dimension_mod_p(a, p) for p in DEFAULT_PRIMES}
        log.append(RankTrial(trial=t, kernel_by_prime=kernels))
    return log


def rank_estimate(sc: StructureConstants, trials: int = 5, *, seed: int = 0) -> int:
    """Minimum observed generic centralizer dimension (the rank, generically)."""
    return min(t.minimum for t in rank_trials(sc, trials, seed=seed))
