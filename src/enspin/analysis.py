"""Lie-theoretic identification of blade closures, on masks alone.

Every bracket of two basis blades is zero or +-2 times the XOR blade,
so center, derived algebra, Killing form, rank and the two-ideal split
are all mask combinatorics.  analyze runs only the mask-native core on
the bitset of the closure that blade_closure proves bracket-closed: the
blades commuting with every generator, which are the center and whose
complement spans the derived algebra (central_blades); the generators'
grades, which decide compactness (is_compact_basis) and with it the
Killing sign; a greedy torus of commuting blades that is its own
centralizer (rank); and the central idempotents (1 +- omega)/2 for the
split, whose complement flip is the bitset read backwards.  Each stage
works on Python ints of 2^n bits (2 MiB at n = 24) or on the generator
masks, so no verify path imports numpy.  Each docstring holds a proof.

The dense structure table, the mod-p rank probe and the leading-minor
Killing test are independent test oracles in enspin.oracles, and the
multivector engine is enspin.multivector; no command loads either.  The
acceptance gate (tests/test_acceptance.py) and the benchmark tracer
(perfbench/tracer.py) still reach some of those names through this
module, so _FORWARDED imports each from its defining module when it is
first read here (PEP 562).  Oracles that only the unit tests call live
in those tests.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from . import _forwarding_getattr
from .bott import CompactTypeDescriptor, closure_type
from .clifford import blades_anticommute
from .closure import ClosureBasis, _anticommute_pattern, blade_closure, check_ambient
from .spinrep import spin_generators

# name -> defining module, for exactly the names that the acceptance gate
# imports from here or the benchmark tracer binds here without this
# module defining them
_FORWARDED = {
    **dict.fromkeys(
        ("center_dim", "derived_dim", "killing_diagonal", "killing_form",
         "killing_negative_definite_check", "rank_estimate", "rank_trials",
         "structure_constants"),
        "oracles",
    ),
    "is_negative_definite": "linalg",
    "kernel_dimension_mod_p": "linalg",
    "bracket": "multivector",
    "mv_product": "multivector",
}
__getattr__ = _forwarding_getattr(globals(), _FORWARDED)


class SplitResult(NamedTuple):
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
        dims = list(self.dims) if self.dims is not None else None
        return {**self._asdict(), "dims": dims, "passed": self.passed}


# --- the mask-native core: everything analyze runs ------------------------

def central_blades(basis: ClosureBasis) -> int:
    """The central blades of the closure of basis.provenance, as a bitset.

    The rule: a blade of the closure L is central iff it commutes with
    every generator.  So the center is basis.bits without the union of
    the generators' anticommute patterns (_anticommute_pattern): one
    pattern per generator, O(n 2^n) bits of work for the n spin
    generators.

    Center.  Say a blade x of the basis S is a partner of a when the
    two anticommute.  For a fixed t the map i -> i ^ t is injective, so
    in [x, b_t] = sum over i anticommuting with t of x_i [b_i, b_t]
    every term lands on its own blade, and [x, b_t] = 0 forces x_i = 0.
    Hence the center is spanned by the blades with no partner.  Those
    commute with every generator, because the generators lie in S.
    Conversely ad(a) is a derivation, so if it kills every generator
    it kills every bracket of generators, which span L; then a has no
    partner, since a partner x gives [a, b_x] = +-2 b_(a ^ x) != 0.

    Derived algebra: it is spanned by the brackets [b_x, b_y] = +-2 b_(x ^ y)
    of anticommuting pairs, and distinct blades are independent, so it
    is spanned by the blades c = x ^ y.  a and y commute up to
    (-1)^q(a, y) with q(a, y) = p_a p_y + |a & y| mod 2 and p the grade
    parity; q is bilinear over F_2 with q(a, a) = 0, so these are
    exactly the blades of S with a partner:
    - if c in S has a partner x, then y = x ^ c is in S by closure, and
      q(x, y) = q(x, x) + q(x, c) = 1, so c = x ^ y is a bracket;
    - if c = x ^ y with q(x, y) = 1, then c is in S by closure, and
      q(x, c) = q(x, x) + q(x, y) = 1, so x is a partner of c.
    So the derived dimension is d minus the number of central blades.

    Killing form: it is diagonal, K_ii = 4 b_i^2 partners_i.  For i != j,
    ad b_i o ad b_j sends each b_k to a multiple of b_(k ^ mask_i ^ mask_j),
    a translation of the masks by a nonzero XOR, so no basis blade maps
    to itself and the trace is 0.  On the diagonal,
    [b_i, [b_i, b_k]] = 4 b_i^2 b_k when b_k anticommutes with b_i and
    0 otherwise.  So K_ii < 0 iff b_i^2 = -1 and b_i is not central,
    and the form is negative definite exactly when no blade is central
    and every blade squares to -1, which is_compact_basis reads off the
    generators' grades.
    """
    anti = 0
    for g in basis.provenance:
        anti |= _anticommute_pattern(g, basis.n)
    return basis.bits & ~anti


def is_compact_basis(basis: ClosureBasis) -> bool:
    """True when every blade of the closure squares to -1, which makes the algebra compact.

    Premise, as for central_blades: the basis is the bracket closure of
    basis.provenance.  Reversing the k factors of a grade-k blade b
    takes k(k-1)/2 swaps, and b reverse(b) = 1 because each v_i squares
    to 1, so b^2 = (-1)^(k(k-1)/2) (Lawson and Michelsohn, Spin Geometry,
    ch. I): -1 exactly for k == 2, 3 mod 4, when bit 1 of k is set.  By
    the proof of blade_closure every blade of the closure is a generator
    or +-xg, for a blade x of the closure and a generator g that
    anticommutes with x, and then (xg)^2 = -x^2 g^2.  So by induction
    every blade squares to -1 iff every generator does.

    Then reverse(b) = b^2 b = -b for every blade.  Left multiplication
    x -> L_x is a faithful representation of the algebra on C(R^n)
    (L_x 1 = x), and in the orthonormal blade basis the transpose of L_b
    is L_{reverse(b)}.  So every element acts as a skew-symmetric matrix
    and the algebra embeds in so(2^n).  This holds at n = 3 as well,
    where the Killing form is degenerate.
    """
    return all(g.bit_count() & 2 for g in basis.provenance)


def greedy_torus(bits: int, n: int) -> int:
    """A maximal abelian set of blades of the bitset, kept greedily in ascending order,
    as a bitset; the rank is its bit count.

    The greedy rule: go through the masks in ascending order and keep a
    mask when it commutes with every mask kept so far.  Run in any order
    on any set of distinct masks, the rule outputs a torus T:

    (a) T is abelian: each kept blade survived the filter of every blade
        kept before it, so it commutes with all of them.
    (b) Every mask not in T was removed by a kept blade it anticommutes
        with.  If x = sum x_i b_i commutes with span(T), then for each t
        in T the terms of [x, b_t] = sum x_i [b_i, b_t] over the b_i
        anticommuting with t land on distinct blades b_{i ^ t} (the
        injectivity argument of central_blades), so all those x_i are 0.
        Hence the centralizer of span(T) is span(T) itself, and T is
        maximal abelian.
    (c) When the bitset is a closure whose generators pass
        is_compact_basis, the algebra is compact, and a maximal abelian
        subalgebra of a compact algebra is a Cartan subalgebra (Knapp,
        Lie Groups Beyond an Introduction, ch. IV), so the rank is |T|.

    On the bitset the rule takes at most ceil(n/2) pattern steps.  The
    commutation exponent q is bilinear over F_2 (_anticommute_pattern),
    so a mask commutes with every kept mask iff it commutes with their
    F_2 span K, and a kept mask that lies in K filters out nothing.
    Hold the candidates C = bits & K^perp, kept and still to come alike.
    The lowest mask t of C outside K is the next one that filters: every
    lower mask of C lies in K and is kept.  Filtering C by the pattern
    of t drops no mask of K, since t is in K^perp, and K + t doubles K.
    When C lies inside K, every mask of C is kept, and T = C.  Each pick
    commutes with the earlier ones, so K is isotropic for q, whose
    matrix over F_2 is J + I (J all ones), with radical {0} for even n
    ((J + I)^2 = I) and {0, 2^n - 1} for odd n.  So dim K <= (n + dim
    radical)/2 = ceil(n/2) (Dehaene and De Moor, PRA 68, 042318): there
    are at most ceil(n/2) picks, and K, a list of masks marked in one
    bytearray of 2^n bits, holds at most 2^ceil(n/2) of them.
    """
    candidates, span, marks = bits, [0], bytearray(1 << n >> 3 or 1)
    marks[0] = 1
    while outside := candidates & ~int.from_bytes(marks, "little"):
        t = (outside & -outside).bit_length() - 1
        candidates &= ~_anticommute_pattern(t, n)
        span += [x ^ t for x in span]
        for x in span[len(span) // 2:]:
            marks[x >> 3] |= 1 << (x & 7)
    return candidates


def split_check(basis: ClosureBasis, *, seed: int = 0) -> SplitResult:
    """Certify the split of the closure into the two top-blade eigenspaces.

    Premise: the basis is the bracket closure of basis.provenance.
    analyze passes the output of blade_closure, whose proof makes it so.

    Proof of the split: when omega = v1...vn is central with omega^2 = 1,
    p = (1 + omega)/2 and q = (1 - omega)/2 are central idempotents with
    p + q = 1 and pq = 0.  The basis is closed under m -> m ^ full, and
    right multiplication by omega sends e_m to s_m e_{m ^ full}, so
    x -> xp and x -> xq map the algebra onto the two eigenspaces, and
    [xp, yq] = [x, y]pq = 0.  Each eigenspace is therefore an ideal, and
    the pairs e_m +- s_m e_{m ^ full}, one per complement pair, give both
    of them dimension d/2.

    So the certificate is its three preconditions: omega^2 by the grade
    rule of is_compact_basis, -1 iff bit 1 of n is set; centrality as no
    generator anticommuting with the top blade, O(n), since ad(omega) is
    a derivation that then kills every bracket of generators (the rule
    of central_blades); and closure under complement, O(2^n): the
    complement flip equals the bitset.  For m <= full, m ^ full =
    full - m, so the flip {m ^ full : m in bits} is the mirror of the
    bitset: its 2^n bits read backwards, one reversed binary string in
    place of n delta swaps.  When it differs, the largest mask y in just
    one of the two names the hole: y itself when y is in the basis, and
    full ^ y otherwise, since then y is the complement of a mask of the
    basis.  That is the first difference of the complements and the
    masks, both in descending order.  When the preconditions hold, the
    proof covers every pair of eigenvectors at once.  seed is accepted
    for compatibility and ignored: nothing is sampled.
    """
    n = basis.n
    if n % 2 == 0:
        return SplitResult(n=n, applicable=False, reason="top blade is not central for even n")
    full = (1 << n) - 1
    omega_sq = -1 if n & 2 else 1
    if omega_sq != 1:
        return SplitResult(n=n, applicable=False, reason="top blade squares to -1 when n == 3 mod 4")

    if any(blades_anticommute(g, full) for g in basis.provenance):
        return SplitResult(n=n, applicable=True, omega_central=False, omega_square=omega_sq,
                           reason="top blade failed centrality or square check")
    bits = basis.bits
    flipped = int(f"{bits:0{1 << n}b}"[::-1], 2)
    if flipped != bits:
        y = (flipped ^ bits).bit_length() - 1
        m = y if bits >> y & 1 else y ^ full
        return SplitResult(n=n, applicable=True, omega_central=True, omega_square=1,
                           reason=f"complement of {m:#x} missing from basis")
    half = basis.dim // 2
    return SplitResult(n=n, applicable=True, omega_central=True, omega_square=1, dims=(half, half),
                       cross_vanishes=True, plus_closed=True, minus_closed=True, exhaustive=True)


@contextmanager
def stage(timings: dict[str, float], name: str) -> Iterator[None]:
    """Record the wall time of the with-block in timings[name], in ms."""
    t0 = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t0) * 1000.0


class AnalysisBundle(NamedTuple):
    """Everything the classifier and the verifier share for one n."""

    n: int
    basis: ClosureBasis
    center: int
    central: int
    compact: bool
    torus: int
    split: SplitResult
    timings_ms: dict[str, float]

    @property
    def derived(self) -> int:
        return self.basis.dim - self.center

    @property
    def killing_ok(self) -> bool:
        """Negative definite: every blade squares to -1 and none is central (central_blades)."""
        return self.compact and self.center == 0

    @property
    def rank(self) -> int:
        return self.torus.bit_count()

    @property
    def killing_mode(self) -> str:
        return "exact"


def analyze(n: int, *, seed: int = 0, exact_killing: bool | None = None) -> AnalysisBundle:
    """Run the full invariant battery for one ambient dimension, on masks only.

    The closure is bracket-closed by the proof of blade_closure, which
    every later stage takes as its premise; the derived dimension is
    d minus the center (central_blades).  Every check is a deterministic
    certificate, so seed is accepted and ignored, and exact_killing may
    be True or None but not False.
    """
    if n < 3:
        raise ValueError(f"analysis needs n >= 3, got {n}")
    check_ambient(n)
    if exact_killing is False:
        raise ValueError("the probabilistic Killing mode is retired; the Killing check is always exact")
    timings: dict[str, float] = {}
    with stage(timings, "closure"):
        basis = blade_closure(n, spin_generators(n).masks)
    with stage(timings, "structure"):
        central = central_blades(basis)
    with stage(timings, "center"):
        center = central.bit_count()
    with stage(timings, "killing"):
        compact = is_compact_basis(basis)
    with stage(timings, "rank"):
        torus = greedy_torus(basis.bits, n)
    with stage(timings, "split"):
        split = split_check(basis)

    return AnalysisBundle(
        n=n,
        basis=basis,
        center=center,
        central=central,
        compact=compact,
        torus=torus,
        split=split,
        timings_ms=timings,
    )


class ClassificationResult(NamedTuple):
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
    """Match dimension, rank, compactness, center and split against closure_type(n).

    The derived dimension (d minus the center) and the Killing sign
    (compact with no center) follow from these, so neither is checked.
    Nor are the split dims: a split passes only when the basis is closed
    under m -> m ^ full, a map with no fixed point, so the basis falls
    into complement pairs, d is even and the dims (d/2, d/2) sum to d."""
    n = bundle.n
    dim = bundle.basis.dim
    failures: list[str] = []
    matched = closure_type(n)
    if dim != matched.dimension():
        failures.append(f"dim {dim} != {matched.dimension()}")
    if bundle.rank != matched.rank():
        failures.append(f"rank {bundle.rank} != {matched.rank()}")
    if not bundle.compact:
        failures.append("torus is not a certified Cartan subalgebra")
    if bundle.center != matched.center_dim():
        failures.append(f"center {bundle.center} != {matched.center_dim()}")
    want_split = matched.summands == 2
    if bundle.split.applicable != want_split:
        failures.append("split applicability does not match summand count")
    if want_split and not bundle.split.passed:
        failures.append(f"split check failed: {bundle.split.reason or 'ideal checks'}")

    return ClassificationResult(
        n=n,
        dim=dim,
        center_dim=bundle.center,
        derived_dim=bundle.derived,
        rank=bundle.rank,
        killing_negative_definite=bundle.killing_ok,
        killing_mode=bundle.killing_mode,
        split_dims=bundle.split.dims,
        matched_type=matched,
        verdict=not failures,
        failures=tuple(failures),
    )


def classify(n: int, *, seed: int = 0) -> ClassificationResult:
    """Compute invariants for one n and return the matched compact type."""
    bundle = analyze(n, seed=seed)
    return classify_bundle(bundle)
