"""Lie-theoretic identification of blade closures, on masks alone.

Every bracket of two basis blades is zero or +-2 times the XOR blade,
so center, derived algebra, Killing form, rank and the two-ideal split
are all mask combinatorics.  analyze runs only the mask-native core on
the bitset of the closure that blade_closure proves bracket-closed.
Two blades commute iff q(x, y) = |x||y| + |x & y| mod 2 is 0, and q is
bilinear over F_2 (enspin.clifford, which also states the square rule),
so every commutation question is linear algebra on n-bit vectors,
answered by one helper, _q_perp.  The blades commuting
with every generator are the center, and their complement spans the
derived algebra (central_blades); the generators' grades decide
compactness (is_compact_basis) and with it the Killing sign; a torus of
commuting blades that is its own centralizer gives the rank
(greedy_torus); and the central idempotents (1 +- omega)/2 give the
split, whose certificate is the closure equal to its complement flip.
The stages ask the closure (ClosureBasis) for membership, mask by mask
(``x in basis``) or in a batch (held), and for its flip (flipped); how
its 2^n bits (2 MiB at n = 24) are stored and read is enspin.closure's
alone, and no stage here reads them as bytes or shifts into them.  All
of it is Python ints, so no verify path imports numpy.  Each docstring
holds a proof.

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
from typing import Iterable, Iterator, NamedTuple

from . import _forwarding_getattr
from .bott import CompactTypeDescriptor, closure_type
from .clifford import _commutation_vector, squares_to_minus_one
from .closure import ClosureBasis, blade_closure, check_ambient
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

def _f2_span(vectors: Iterable[int]) -> list[int]:
    """Every XOR of a subset of vectors: 2^k distinct masks for k independent vectors."""
    span = [0]
    for v in vectors:
        span += [x ^ v for x in span]
    return span


def _q_perp(vectors: Iterable[int], n: int) -> list[int]:
    """Every mask x < 2^n with q(x, v) = 0 for each v in vectors.

    q(x, v) = |x & h_v| mod 2 with h_v = _commutation_vector(v, n), and
    x -> |x & h_v| mod 2 is a linear form on F_2^n, so the answer is the
    intersection of the kernels of these forms.  Hold a basis B of the
    masks that pass the vectors so far, starting from the unit vectors.
    For the next form, call a vector of B odd when the form is 1 on it.
    If none is odd, all of span(B) passes.  Otherwise let b be the first
    odd one: every other odd x becomes x ^ b, which is even, and b is
    dropped.  The dim span(B) - 1 vectors left are independent (a change
    of basis of span(B), less one vector) and even, so they span the
    kernel of the form on span(B), which has that dimension because b
    lies outside it.  That is O(n^2) bit operations per vector.  The
    span of the final basis is listed by _f2_span, with nothing of size
    2^n built on the way.
    """
    basis = [1 << b for b in range(n)]
    for h in (_commutation_vector(v, n) for v in vectors):
        odd = [x for x in basis if (x & h).bit_count() & 1]
        basis = [x for x in basis if x not in odd] + [x ^ odd[0] for x in odd[1:]]
    return _f2_span(basis)


def central_blades(basis: ClosureBasis) -> int:
    """The central blades of the closure of basis.provenance, as a bitset.

    The rule: a blade of the closure L is central iff it commutes with
    every generator, that is iff its mask lies in G^perp =
    _q_perp(basis.provenance, n).  So the center is the closure's bits
    at the masks of G^perp.  For the n spin generators, which span
    F_2^n, G^perp is the radical of q: {0} for even n and {0, 2^n - 1}
    for odd n (tests/test_maskcore.py checks this for n = 3..28).  The
    mask 0 is never in a closure: blade_closure starts from nonzero
    generators, and a step x -> x ^ g needs x and g to anticommute, so
    x != g.  So the center costs at most one probe of the bitset.

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
    (-1)^q(a, y), and q is bilinear over F_2 with q(a, a) = 0
    (_commutation_vector), so these are exactly the blades of S with a
    partner:
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
    return sum(1 << x for x in _q_perp(basis.provenance, basis.n) if x and x in basis)


def is_compact_basis(basis: ClosureBasis) -> bool:
    """True when every blade of the closure squares to -1, which makes the algebra compact.

    Premise, as for central_blades: the basis is the bracket closure of
    basis.provenance.  A blade squares to -1 or to 1, to -1 exactly when
    squares_to_minus_one holds for its mask (the grade rule).  By the
    proof of blade_closure every blade of the closure is a generator
    or +-xg, for a blade x of the closure and a generator g that
    anticommutes with x, and then (xg)^2 = -x^2 g^2.  So by induction
    every blade squares to -1 iff every generator does.

    Then reverse(b) = b^-1 = b^2 b = -b for every blade, since
    b reverse(b) = 1 (the proof of squares_to_minus_one).  Left
    multiplication x -> L_x is a faithful representation of the algebra
    on C(R^n) (L_x 1 = x), and in the orthonormal blade basis the
    transpose of L_b is L_{reverse(b)}.  So every element acts as a
    skew-symmetric matrix and the algebra embeds in so(2^n).  This holds
    at n = 3 as well, where the Killing form is degenerate.
    """
    return all(map(squares_to_minus_one, basis.provenance))


def greedy_torus(basis: ClosureBasis) -> tuple[int, ...]:
    """A maximal abelian set T of the masks of basis, ascending; the rank is len(T).

    Picks: the commuting pairs v1v2, v3v4, ... that lie in the basis,
    then, while the basis holds a mask of K^perp outside K = span(picks),
    the least such mask.  T is the basis's part of K^perp when that
    stops.  K^perp is _q_perp(picks, n), filtered by basis.held in one
    pass.  Since q is bilinear (_commutation_vector), a mask
    commutes with every pick iff it lies in K^perp.  On any set of masks:

    (a) T is abelian: the picks commute pairwise, so K is isotropic for
        the alternating form q, and the loop stops only when T lies in
        K.  Each pick lies in the bitset and in K, inside K^perp, so it
        lies in T.
    (b) Every mask of the basis outside T lies outside K^perp, so it
        anticommutes with some pick.  If x = sum x_i b_i commutes with
        span(T), then for each pick t the terms of
        [x, b_t] = sum x_i [b_i, b_t] over the b_i anticommuting with t
        land on distinct blades b_{i ^ t} (the injectivity argument of
        central_blades), so all those x_i are 0.  Hence the centralizer
        of span(T) is span(T) itself, and T is maximal abelian.
    (c) When the basis is a closure whose generators pass
        is_compact_basis, the algebra is compact, and a maximal abelian
        subalgebra of a compact algebra is a Cartan subalgebra (Knapp,
        Lie Groups Beyond an Introduction, ch. IV), so the rank is |T|.

    The loop ends: each pick lies outside K, so it doubles K.  K is
    isotropic for q, whose matrix over F_2 is J + I (J all ones), with
    radical {0} for even n ((J + I)^2 = I) and {0, 2^n - 1} for odd n.
    So dim K <= (n + dim radical)/2 = ceil(n/2) (Dehaene and De Moor,
    PRA 68, 042318): there are at most ceil(n/2) picks, and each round
    lists K and K^perp, of 2^k and at most 2^(n - k + 1) masks for k
    picks.
    """
    picks = basis.held(3 << b for b in range(0, basis.n - 1, 2))
    while True:
        found, span = basis.held(_q_perp(picks, basis.n)), set(_f2_span(picks))
        if not (outside := [x for x in found if x not in span]):
            return tuple(sorted(found))
        picks.append(min(outside))


def split_check(basis: ClosureBasis, *, seed: int = 0) -> SplitResult:
    """Certify the split of the closure into the two top-blade eigenspaces.

    Premise: the basis is the bracket closure of basis.provenance.
    analyze passes the output of blade_closure, whose proof makes it so.

    Proof of the split: when omega = v1...vn is central with omega^2 = 1,
    p = (1 + omega)/2 and p' = (1 - omega)/2 are central idempotents with
    p + p' = 1 and pp' = 0.  The basis is closed under m -> m ^ full, and
    right multiplication by omega sends e_m to s_m e_{m ^ full}, so
    x -> xp and x -> xp' map the algebra onto the two eigenspaces, and
    [xp, yp'] = [x, y]pp' = 0.  Each eigenspace is therefore an ideal, and
    the pairs e_m +- s_m e_{m ^ full}, one per complement pair, give both
    of them dimension d/2.

    So the certificate is its three preconditions: omega^2 by the grade
    rule, squares_to_minus_one of the full mask; centrality as the
    top blade lying in G^perp = _q_perp(basis.provenance, n), O(n^3),
    since ad(omega) is a derivation that then kills every bracket of
    generators (the rule of central_blades); and closure under
    complement, O(2^n): the complement flip {m ^ full : m in basis}
    (basis.flipped, the bitset's mirror, in place of n delta swaps)
    equals the bitset.  When they differ, the largest mask y in just
    one of the two names the hole: y itself
    when y is in the basis, and full ^ y otherwise, since then y is the
    complement of a mask of the basis.  That is the first difference of
    the complements and the masks, both in descending order.  When the
    preconditions hold, the proof covers every pair of eigenvectors at
    once.  seed is accepted for compatibility and ignored: nothing is
    sampled.
    """
    n = basis.n
    if n % 2 == 0:
        return SplitResult(n=n, applicable=False, reason="top blade is not central for even n")
    full = (1 << n) - 1
    omega_sq = -1 if squares_to_minus_one(full) else 1
    if omega_sq != 1:
        return SplitResult(n=n, applicable=False, reason="top blade squares to -1 when n == 3 mod 4")

    if full not in _q_perp(basis.provenance, n):
        return SplitResult(n=n, applicable=True, omega_central=False, omega_square=omega_sq,
                           reason="top blade failed centrality or square check")
    flipped = basis.flipped()
    if flipped != basis.bits:
        y = (flipped ^ basis.bits).bit_length() - 1
        m = y if y in basis else y ^ full
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
    torus: tuple[int, ...]
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
        return len(self.torus)

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
        torus = greedy_torus(basis)
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
