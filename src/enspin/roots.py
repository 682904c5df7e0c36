"""Positive root enumeration for the finite E-series diagrams.

Roots are integer coordinate vectors in the simple-root basis, and the
Cartan matrix is enspin.spinrep's cartan_matrix, the one statement of
the E_n diagram, which verify_relations also reads.  The enumeration
walks the heights upward from the simple roots: every positive root of
height h+1 is beta + alpha_i for a positive root beta of height h
(Humphreys, Introduction to Lie Algebras, 10.2), and in a simply laced
system beta + alpha_i is a root iff <beta, alpha_i> = -1 (the pairing
rule, from the string lengths of 9.4).  One pass over the heights finds
every root in O(R n^2) for R positive roots.  E_3 through E_8 are the
finite cases; anything past 8 has an infinite root system and is
rejected up front.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .spinrep import cartan_matrix, spin_generators

#: The height of the highest root of E_8, the largest of E_3..E_8 (2, 4,
#: 7, 11, 17 and 29), so no positive root of a finite E_n lies above it.
_MAX_HEIGHT = 29


class RootSet(NamedTuple):
    """Positive system of one diagram, roots sorted by (height, lex)."""

    n: int
    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "roots": [list(r) for r in self.roots],
        }


def positive_roots(n: int) -> RootSet:
    """Enumerate the positive system for 3 <= n <= 8, one height at a time.

    ``layer`` maps each root beta of height h to its pairings C beta;
    height h+1 is the set of beta + alpha_i, beta in ``layer``, with
    (C beta)_i = <beta, alpha_i> = -1 (C is symmetric).  This is exact:

    - Every root of height h+1 is beta + alpha_i for some root beta of
      height h (Humphreys 10.2), so the layers miss nothing.
    - The pairing rule (Humphreys 9.4).  Let beta != alpha_i be a
      positive root and beta - r alpha_i, ..., beta + q alpha_i its
      alpha_i-string, so r - q = <beta, alpha_i>.  Its top gamma =
      beta + q alpha_i is not a multiple of alpha_i, and all roots have
      one length, so <gamma, alpha_i> = r + q is at most 1.  Then
      beta + alpha_i is a root (q = 1) iff r - q = -1.  For beta =
      alpha_i the pairing is 2, and 2 alpha_i is no root.

    No inner product is taken: C(beta + alpha_i) = C beta + C alpha_i is
    the parent's pairings plus row i of C.  The rule is tested in O(1) per
    (root, i), and a new root costs O(n) per parent it is reached from,
    so the cost is O(R n^2) for R positive roots.

    The walk is bounded: no root of E_3..E_8 lies above _MAX_HEIGHT, so
    it builds the layers up to height _MAX_HEIGHT + 1, each empty once
    the top is passed, and a root there means the pairings are not those
    of a finite E_n (a wrong Cartan matrix can make every layer
    nonempty): it raises RuntimeError rather than walking on without end.
    """
    if n < 3:
        raise ValueError(f"root enumeration needs n >= 3, got {n}")
    if n > 8:
        raise ValueError(f"infinite type: the rank-{n} diagram has no finite root system")
    cartan = cartan_matrix(n)

    layer = {tuple(int(j == i) for j in range(n)): row for i, row in enumerate(cartan)}
    have = set(layer)
    for _ in range(_MAX_HEIGHT):  # heights 2 .. _MAX_HEIGHT + 1
        layer = {
            beta[:i] + (beta[i] + 1,) + beta[i + 1:]: tuple(map(add, pairing, cartan[i]))
            for beta, pairing in layer.items()
            for i, c in enumerate(pairing)
            if c == -1
        }
        have.update(layer)
    if layer:
        raise RuntimeError(f"root walk reached height {_MAX_HEIGHT + 1}, above E_8's highest root")

    ordered = tuple(sorted(have, key=lambda r: (sum(r), r)))
    return RootSet(n=n, cartan=cartan, roots=ordered)


def theorem_b_check(n: int) -> bool:
    """Positive-root count equals the closure dimension of the spin generators."""
    from .closure import blade_closure

    rs = positive_roots(n)
    basis = blade_closure(n, spin_generators(n).masks)
    return rs.count == basis.dim
