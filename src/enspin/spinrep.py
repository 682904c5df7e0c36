"""Spin-representation generators and their defining relations.

The generators sit inside the Clifford algebra on n generators:

    A_1 = v1 v2,   A_2 = v1 v2 v3,   A_j = v_{j-1} v_j   (3 <= j <= n)

Each is an unsigned blade, so SpinGenerators holds its mask alone.  The
E_n diagram is stated once, as its Cartan matrix (cartan_matrix), which
both verify_relations and the root walk of enspin.roots read: i and j
are adjacent when entry (i, j) is -1.  Two generators are adjacent
exactly when their index sets share one element; adjacency makes them
anticommute, disjoint or doubly-overlapping index sets make them
commute.  The machine check verifies the Berman-style presentation,
read off the masks by the square rule and the commutation form of
enspin.clifford (verify_relations):

    A_i^2 = -1
    [A_i, A_j] = 0                 when i, j not adjacent
    [A_i, [A_i, A_j]] = -4 A_j     when i, j adjacent

and the half-scaled variant Y_i = A_i / 2 with Y_i^2 = -1/4 and
[Y_i, [Y_i, Y_j]] = -Y_j on edges.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _forwarding_getattr
from .clifford import blades_anticommute, squares_to_minus_one

# name -> defining module, for exactly the names that the benchmark tracer
# (perfbench/tracer.py) binds here without this module defining them
_FORWARDED = {"bracket": "multivector", "mv_product": "multivector"}
__getattr__ = _forwarding_getattr(globals(), _FORWARDED)


def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The symmetric simply laced Cartan matrix of E_n, the one statement of its diagram.

    Nodes 1..n in the Bourbaki branch node convention; the -1 entries are
    the edges {1,3}, {i,i+1} for 3 <= i < n, and {2,4}, each kept where
    both ends are nodes.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in ((1, 3), (2, 4), *((i, i + 1) for i in range(3, n))):
        if j <= n:
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return tuple(map(tuple, rows))


class SpinGenerators(NamedTuple):
    """The masks of A_1, ..., A_n, in that order."""

    n: int
    masks: tuple[int, ...]


def spin_generators(n: int) -> SpinGenerators:
    if n < 3:
        raise ValueError(f"spin generators need n >= 3, got {n}")
    masks = (0b11, 0b111, *(0b11 << (j - 2) for j in range(3, n + 1)))  # v_{j-1} v_j
    return SpinGenerators(n=n, masks=masks)


class RelationReport(NamedTuple):
    """Pass/fail record for the full generator presentation at one n."""

    n: int
    squares: dict[int, bool]
    pairs: dict[tuple[int, int], bool]
    scaled_ok: bool
    failures: list[str]

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "squares_ok": all(self.squares.values()),
            "pairs_ok": all(self.pairs.values()),
            "scaled_ok": self.scaled_ok,
            "failures": list(self.failures),
            "all_pass": self.all_pass,
        }


def verify_relations(n: int) -> RelationReport:
    """Machine-check the presentation for every generator and ordered pair, on the masks.

    Each generator is a blade a, so a^2 = +-1, and it is -1 exactly when
    squares_to_minus_one(a) holds.  Two blades either commute, and then
    [a, b] = 0, or anticommute (blades_anticommute), and then [a, b] = 2ab
    and [a, [a, b]] = 2a(ab) - 2(ab)a = 2a^2 b + 2a^2 b = 4a^2 b.  So on an
    edge [A_i, [A_i, A_j]] = -4 A_j iff the two anticommute and
    A_i^2 = -1 (when they commute the left side is 0, and A_j is not);
    off an edge [A_i, A_j] = 0 iff they commute.

    The half-scaled Y_i = A_i / 2 have Y_i^2 = A_i^2 / 4 and
    [Y_i, [Y_i, Y_j]] = [A_i, [A_i, A_j]] / 8, so Y_i^2 = -1/4 for all i
    and [Y_i, [Y_i, Y_j]] = -Y_j on every edge exactly when the unscaled
    squares and edge relations hold.
    """
    gens = spin_generators(n)
    cartan = cartan_matrix(n)
    squares: dict[int, bool] = {}
    pairs: dict[tuple[int, int], bool] = {}
    failures: list[str] = []

    for i, a in enumerate(gens.masks, start=1):
        squares[i] = squares_to_minus_one(a)
        if not squares[i]:
            failures.append(f"A_{i}^2 != -1")

    for i, a in enumerate(gens.masks, start=1):
        for j, b in enumerate(gens.masks, start=1):
            if i == j:
                continue
            anticommute = blades_anticommute(a, b)
            if cartan[i - 1][j - 1] == -1:
                ok = anticommute and squares[i]
                if not ok:
                    failures.append(f"[A_{i},[A_{i},A_{j}]] != -4 A_{j}")
            else:
                ok = not anticommute
                if not ok:
                    failures.append(f"[A_{i},A_{j}] != 0 off the diagram")
            pairs[(i, j)] = ok

    scaled_ok = all(squares.values()) and all(
        ok for (i, j), ok in pairs.items() if cartan[i - 1][j - 1] == -1
    )
    if not scaled_ok:
        failures.append("half-scaled presentation failed")

    return RelationReport(n=n, squares=squares, pairs=pairs, scaled_ok=scaled_ok, failures=failures)
