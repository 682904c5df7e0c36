"""Positive root enumeration for the finite E-series diagrams.

Roots are integer coordinate vectors in the simple-root basis.  The
enumeration walks the heights upward from the simple roots: every
positive root of height h+1 is beta + alpha_i for a positive root beta
of height h (Humphreys, Introduction to Lie Algebras, 10.2), and by the
string rule beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0,
where p is the depth of the alpha_i string below beta.  One pass over
the heights finds every root in O(R n^2) for R positive roots.  E_3
through E_8 are the finite cases; anything past 8 has an infinite root
system and is rejected up front.
"""

from __future__ import annotations

from typing import NamedTuple

from .spinrep import en_adjacency


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


def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Symmetric simply laced Cartan matrix of the E_n diagram."""
    diagram = en_adjacency(n)
    rows = []
    for i in range(1, n + 1):
        rows.append(tuple(
            2 if i == j else (-1 if diagram.adjacent(i, j) else 0)
            for j in range(1, n + 1)
        ))
    return tuple(rows)


def positive_roots(n: int) -> RootSet:
    """Enumerate the positive system for 3 <= n <= 8, one height at a time.

    ``layer`` holds the roots of height h and ``have`` every root of
    height <= h.  Height h+1 is built as the beta + alpha_i, beta in
    ``layer``, with p - <beta, alpha_i^vee> > 0.  This is exact: the
    roots beta - k alpha_i below beta on its alpha_i-string have lower
    height, so they are all in ``have`` and p is the true string depth;
    and every root of height h+1 arises this way from some root of
    height h (Humphreys 10.2), so the layers miss nothing.  C beta is
    computed once per root and strings in a simply laced system are
    short, so the cost is O(R n^2) for R positive roots.
    """
    if n < 3:
        raise ValueError(f"root enumeration needs n >= 3, got {n}")
    if n > 8:
        raise ValueError(f"infinite type: the rank-{n} diagram has no finite root system")
    cartan = cartan_matrix(n)

    layer = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    have: set[tuple[int, ...]] = set(layer)
    while layer:
        above: set[tuple[int, ...]] = set()
        for beta in layer:
            c_beta = [sum(c * b for c, b in zip(row, beta)) for row in cartan]
            for i in range(n):
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in have:
                        break
                    p += 1
                if p - c_beta[i] > 0:
                    above.add(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
        have |= above
        layer = above

    ordered = tuple(sorted(have, key=lambda r: (sum(r), r)))
    return RootSet(n=n, cartan=cartan, roots=ordered)


def theorem_b_check(n: int) -> bool:
    """Positive-root count equals the closure dimension of the spin generators."""
    from .closure import blade_closure
    from .spinrep import spin_generators

    rs = positive_roots(n)
    basis = blade_closure(n, spin_generators(n).masks)
    return rs.count == basis.dim
