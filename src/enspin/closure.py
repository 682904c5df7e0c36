"""Lie subalgebra closure inside the Clifford algebra.

Two routes.  The fast route works on blade masks only: the bracket of
two basis blades is zero or +-2 times a single blade, so the subalgebra
generated by blades is spanned by blades, and the closure is the least
mask set that holds the XOR of every anticommuting pair it contains.
blade_closure reaches that set by a breadth-first walk from the
generators, one generator step at a time, because the algebra is
spanned by right-normed brackets: O(n d) mask operations for a closure
of dimension d on a bool and an int32 array of length 2^n, and after it
one int64 array, 8 bytes per blade and no Python int per blade.  Its
proof certifies that the result is bracket-closed.  One ceiling,
MAX_AMBIENT, bounds n for every caller, and check_ambient tests it
before anything is built.  The general route,
which cross-validates it, sifts brackets into an exact echelon basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .clifford import Multivector, bracket
from .deltas import drops_top_blade, lower_bound_dim
from .linalg import EchelonBasis

#: The one ceiling on the ambient dimension, set by memory: the walk
#: holds a bool and an int32 array of length 2^n, after it a run holds
#: 8 bytes per blade and no Python int per blade, and the peak of a run
#: roughly doubles with each step of n (about 215 MiB at n = 24).
MAX_AMBIENT = 24


@dataclass(frozen=True, eq=False)
class ClosureBasis:
    """Blade masks of a bracket-closed subalgebra.

    mask_array is ascending, read-only int64 and what every stage reads
    (split_check relies on the order); masks, its tuple, is built on read."""

    n: int
    mask_array: np.ndarray
    provenance: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.mask_array.size

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(self.mask_array.tolist())

    def is_closed(self) -> bool:
        """Re-check the defining closure property (quadratic, for tests)."""
        from .clifford import blades_anticommute

        mask_set = set(self.masks)
        return all(
            a ^ b in mask_set
            for i, a in enumerate(self.masks)
            for b in self.masks[i + 1:]
            if blades_anticommute(a, b)
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "masks": [f"{m:#x}" for m in self.masks],
        }


def check_ambient(n: int) -> None:
    """Raise ValueError unless a closure in ambient dimension n may be built.

    n must be at least 1 and at most MAX_AMBIENT.  Nothing is allocated,
    so a caller can check the top of a range before any work starts.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if n > MAX_AMBIENT:
        raise ValueError(f"ambient dimension {n} exceeds hard ceiling {MAX_AMBIENT}")


def _anticommute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean array: the blades a and b anticommute (|a||b| - |a & b| odd).

    Moving a factor v of b across a passes |a| factors, and all but v
    itself (when v is in a) anticommute with it, so
    ab = (-1)^(|a||b| - |a & b|) ba.  For even |b| that is |a & b| odd;
    for odd |b| it is |a| - |a & b| = |a & ~b| odd.  So one popcount of
    a & h_b decides, with h_b = b or ~b.
    """
    h = np.where(np.bitwise_count(b) & 1, ~b, b)
    return (np.bitwise_count(a & h) & 1).astype(bool)


def blade_closure(n: int, generators: Iterable[int], *, allow_large: bool = False) -> ClosureBasis:
    """Least superset of the generator masks closed under XOR of anticommuting pairs.

    Its cardinality is the real dimension of the Lie subalgebra L that
    the generator blades G generate.  It is the set R of masks reached
    from G by steps x -> x ^ g, for g in G anticommuting with x:

    - L is spanned by the right-normed brackets [g_1, [g_2, ..., g_k]]
      with every g_i in G.  Their span V contains G and is closed under
      [g, .] for g in G, and [[g, u], v] = [g, [u, v]] - [u, [g, v]]
      shows by induction on the length of u that [u, V] lies in V for
      every right-normed u.  So V is a subalgebra, and V = L.
    - Such a bracket is +-2^(k-1) times the blade g_1 ^ ... ^ g_k when
      each g_i anticommutes with the blade of g_(i+1) ^ ... ^ g_k, and 0
      as soon as one step commutes.  So L is spanned by the blades of R.
    - Distinct blades are independent, so L closed under the bracket
      means R holds x ^ y for every anticommuting pair x, y in R, and
      R contains G.  Conversely every step of the walk stays inside any
      such superset of G.  So R is the least one.

    Step test: _anticommute, whose docstring has the proof.  Each level
    is one frontier x generators outer product.  Candidates already in
    the bool membership array are dropped, and the rest are deduplicated
    through an int32 array of the same length: each candidate writes its
    position there, one write per mask survives, and the candidate that
    reads back its own position is kept.  This needs no sort, whose first call maps about
    0.3 MiB of code, and positions fit in int32 (2^31 candidates would
    take 16 GiB).  Every mask enters the frontier once, so the walk
    does O(|G| d) mask operations for a closure of dimension d, which
    is O(n d) for the n spin generators.  allow_large is accepted for
    compatibility and ignored: MAX_AMBIENT is the only ceiling.
    """
    check_ambient(n)
    gens = sorted({int(g) for g in generators})
    if not gens:
        raise ValueError("generator list is empty")
    limit = 1 << n
    for g in gens:
        if g <= 0 or g >= limit:
            raise ValueError(f"generator mask {g:#x} not a nonzero mask within {n} bits")

    g = np.array(gens, dtype=np.int64)
    present = np.zeros(limit, dtype=bool)
    slot = np.empty(limit, dtype=np.int32)
    present[g] = True
    frontier = g
    while frontier.size:
        fresh = (frontier[:, None] ^ g)[_anticommute(frontier[:, None], g)]
        fresh = fresh[~present[fresh]]
        at = np.arange(fresh.size, dtype=np.int32)
        slot[fresh] = at
        frontier = fresh[slot[fresh] == at]
        present[frontier] = True
    masks = np.flatnonzero(present)
    masks.flags.writeable = False
    return ClosureBasis(n=n, mask_array=masks, provenance=tuple(gens))


def predicted_masks(n: int) -> frozenset[int]:
    """The mask set the closure of the spin generators is expected to span.

    All masks of grade 2 or 3 mod 4, without the full mask where it is
    unreachable (drops_top_blade).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    full = (1 << n) - 1
    out = {m for m in range(1, 1 << n) if m.bit_count() % 4 in (2, 3)}
    if drops_top_blade(n):
        out.discard(full)
    return frozenset(out)


@dataclass(frozen=True)
class LemmaContainment:
    """Outcome of comparing a computed closure against the predicted mask set."""

    n: int
    all_expected_present: bool
    full_mask_present: bool
    full_mask_expected: bool
    wrong_grade_masks: int
    missing_masks: int
    extra_masks: int
    exactly_predicted: bool

    @property
    def passed(self) -> bool:
        return self.exactly_predicted

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "all_expected_present": self.all_expected_present,
            "full_mask_present": self.full_mask_present,
            "full_mask_expected": self.full_mask_expected,
            "wrong_grade_masks": self.wrong_grade_masks,
            "missing_masks": self.missing_masks,
            "extra_masks": self.extra_masks,
            "exactly_predicted": self.exactly_predicted,
        }


def lemma_containment_check(n: int, basis: ClosureBasis) -> LemmaContainment:
    """Check a spin-generator closure against the predicted grade-(2,3 mod 4) span.

    Counts on the mask array alone, in O(d): a mask is predicted when it
    has at most n bits, its grade is 2 or 3 mod 4, and it is not an
    excluded full mask (predicted_masks).  The masks of a ClosureBasis
    are distinct and the predicted set has lower_bound_dim(n) elements,
    so missing = lower_bound_dim(n) - hits and extra = d - hits.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    full = (1 << n) - 1
    drop_full = drops_top_blade(n)
    have = basis.mask_array
    grade = np.bitwise_count(have) % 4
    predicted = (grade >= 2) & (have <= full)
    if drop_full:
        predicted &= have != full
    hits = int(np.count_nonzero(predicted))
    missing = lower_bound_dim(n) - hits
    extra = have.size - hits
    return LemmaContainment(
        n=n,
        all_expected_present=missing == 0,
        full_mask_present=bool(np.any(have == full)),
        full_mask_expected=not drop_full and n % 4 in (2, 3),
        wrong_grade_masks=int(np.count_nonzero(grade < 2)),
        missing_masks=missing,
        extra_masks=extra,
        exactly_predicted=missing == 0 and extra == 0,
    )


def general_closure(n: int, generators: Sequence[Multivector]) -> EchelonBasis:
    """Echelon basis of the Lie span of the generators, closed by sift-until-fixpoint.

    Worklist in breadth-first order: each accepted vector is bracketed
    against everything accepted before it, so every unordered pair is
    handled exactly once and the termination bound is the ambient 2^n.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator list is empty")
    for g in gens:
        if g.dim != n:
            raise ValueError(f"generator dimension {g.dim} != ambient {n}")
        if g.is_zero():
            raise ValueError("zero generator")
    basis = EchelonBasis(1 << n)
    reps: list[Multivector] = []
    for g in gens:
        if basis.sift(g.terms):
            reps.append(g)
    q = 0
    while q < len(reps):
        for i in range(q):
            z = bracket(reps[i], reps[q])
            if not z.is_zero() and basis.sift(z.terms):
                reps.append(z)
                if len(reps) > (1 << n):
                    raise AssertionError("closure exceeded ambient dimension")
        q += 1
    return basis
