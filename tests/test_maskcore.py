"""The mask-native analysis core against the dense-table, integer pair and Fraction oracles."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspin.analysis import (
    SplitResult,
    _q_perp,
    analyze,
    central_blades,
    greedy_torus,
    is_compact_basis,
    split_check,
)
from enspin.bott import closure_type
from enspin.clifford import Blade, blade_product, blades_anticommute
from enspin.closure import ClosureBasis, blade_closure, lemma_containment_check
from enspin.multivector import Multivector, bracket, mv_product
from enspin.oracles import (
    center_dim,
    derived_dim,
    killing_diagonal,
    rank_estimate,
    structure_constants,
)
from enspin.report import _killing_outcome
from enspin.spinrep import spin_generators
from test_closure import (
    _anticommute,
    anticommuting_pair_counts,
    bits_of,
    central_blades_reference,
    mask_array,
    mask_killing_diagonal,
    partner_sweep,
)

CLOSURES = {n: blade_closure(n, spin_generators(n).masks) for n in range(3, 11)}

# --- the Fraction oracle for the split ------------------------------------


def split_check_fractions(basis: ClosureBasis) -> SplitResult:
    """Test oracle for split_check: omega and every pair bracketed as exact multivectors.

    Only n == 1 mod 4 has a split to check (omega is central with
    omega^2 = 1 there alone), so any other n raises ValueError.
    """
    n = basis.n
    if n % 4 != 1:
        raise ValueError(f"the split oracle needs n == 1 mod 4, got {n}")
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
    return SplitResult(n=n, applicable=True, omega_central=True, omega_square=1, dims=(half, half),
                       cross_vanishes=cross, plus_closed=p_closed, minus_closed=m_closed,
                       exhaustive=True)

# --- centralizer oracles for the greedy torus ------------------------------


def greedy_torus_reference(masks) -> tuple[int, ...]:
    """Blades taken in the given order, each kept when it commutes with all kept so far.

    A maximal abelian set by the proof of greedy_torus (a), (b); on a
    spin closure its size is the rank, as is the size of greedy_torus.
    """
    m = np.asarray(masks, dtype=np.int64)
    free = np.ones(len(m), dtype=bool)
    chosen: list[int] = []
    start = 0
    while start < len(m):
        i = start + int(np.argmax(free[start:]))
        if not free[i]:
            break
        chosen.append(int(m[i]))
        free &= ~_anticommute(m, m[i])
        start = i + 1
    return tuple(chosen)


def centralizer_masks(masks, torus) -> tuple[int, ...]:
    """The blades among masks that commute with every blade of torus.

    By the injectivity argument of central_blades, the centralizer of
    span(torus) is spanned by exactly these blades.
    """
    m = np.asarray(masks, dtype=np.int64)
    free = np.ones(len(m), dtype=bool)
    for t in torus:
        free &= ~_anticommute(m, np.int64(t))
    return tuple(int(x) for x in m[free])


def torus_is_cartan(masks, torus) -> bool:
    """Certificate that span(torus) is a Cartan subalgebra, so rank = |torus|.

    If the centralizer of span(torus) is span(torus) itself, the torus is
    abelian and maximal abelian.  In a compact Lie algebra a maximal
    abelian subalgebra is a Cartan subalgebra (Knapp, Lie Groups Beyond
    an Introduction, ch. IV).  Compactness is checked blade by blade: a
    grade-k blade squares to -1 iff bit 1 of k is set.
    """
    return all(m.bit_count() & 2 for m in masks) and set(centralizer_masks(masks, torus)) == set(torus)


# --- integer pair oracle for the split certificate -------------------------

#: split_pair_checks works in row blocks of about this many entries.
_BLOCK = 1 << 18
#: Bits 1, 3, 5, ... of a mask: generators v2, v4, v6, ...
_ODD_BITS = 0x2AAAAAAAAAAAAAAA


def _swap_parity(x: np.ndarray, n: int) -> np.ndarray:
    """Masks P with e_x e_y = (-1)^|y & P(x)| e_{x ^ y}.

    Bit j of P(x) is the parity of the number of generators of x with
    index above j: each generator j of y moves left past exactly those.
    """
    p = np.zeros_like(x)
    for j in range(n):
        p |= (np.bitwise_count(x >> (j + 1)) & 1).astype(np.int64) << j
    return p


def _bracket_coeff(x: np.ndarray, px: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient of e_{x ^ y} in [e_x, e_y], as int8 in {0, 2, -2}; px = P(x)."""
    sign = 1 - 2 * (np.bitwise_count(y & px) & 1).astype(np.int8)
    return np.where(_anticommute(x, y), 2 * sign, 0).astype(np.int8)


def _omega_sign(x: np.ndarray) -> np.ndarray:
    """s_x in e_x omega = s_x e_{x ^ full}, as int8 +-1.

    Moving v1...vn right past e_x costs one swap per pair (i in x, j < i),
    so s_x = (-1)^(sum of the 0-based indices in x): the parity of the
    odd-indexed bits of x.
    """
    return (1 - 2 * (np.bitwise_count(x & _ODD_BITS) & 1)).astype(np.int8)


def split_pair_checks(n: int, lo: np.ndarray, signs: np.ndarray) -> tuple[bool, bool, bool]:
    """Cross, plus and minus pair checks for u_a = e_a + eps s_a e_{a ^ full}.

    lo holds one mask a per complement pair and signs the s_a used to
    build the eigenvectors.  For eps, delta in {+1, -1} and a' = a ^ full,
    [u_a^eps, u_b^delta] lies in span{e_t, e_t'}, t = a ^ b, t' = t ^ full:
        C1 = c(a, b) + eps delta s_a s_b c(a', b')   on e_t
        C2 = delta s_b c(a, b') + eps s_a c(a', b)  on e_t'
    with c(x, y) the coefficient of [e_x, e_y].  Cross brackets (eps = +,
    delta = -) must vanish for every pair.  A same-sign bracket z is an
    eps-eigenvector of right multiplication by omega exactly when
    C2 = eps s_t C1 and C1 = eps s_t' C2; that is checked for every a < b.
    """
    full = (1 << n) - 1
    half = len(lo)
    hi = lo ^ full
    p_lo, p_hi = _swap_parity(lo, n), _swap_parity(hi, n)
    signs = np.asarray(signs, dtype=np.int8)
    cross = True
    closed = {1: True, -1: True}
    rows = max(1, _BLOCK // max(half, 1))
    for i0 in range(0, half, rows):
        sl = slice(i0, i0 + rows)
        a, a2, pa, pa2 = lo[sl, None], hi[sl, None], p_lo[sl, None], p_hi[sl, None]
        sa, sb = signs[sl, None], signs[None, :]
        b, b2 = lo[None, :], hi[None, :]
        c_ab, c_ab2 = _bracket_coeff(a, pa, b), _bracket_coeff(a, pa, b2)
        c_a2b, c_a2b2 = _bracket_coeff(a2, pa2, b), _bracket_coeff(a2, pa2, b2)

        def coeffs(eps: int, delta: int) -> tuple[np.ndarray, np.ndarray]:
            return (c_ab + eps * delta * sa * sb * c_a2b2,
                    delta * sb * c_ab2 + eps * sa * c_a2b)

        c1, c2 = coeffs(1, -1)
        cross = cross and not (np.any(c1) or np.any(c2))
        t = a ^ b
        s_t, s_t2 = _omega_sign(t), _omega_sign(t ^ full)
        upper = np.arange(i0, i0 + len(a))[:, None] < np.arange(half)[None, :]
        for eps in closed:
            c1, c2 = coeffs(eps, eps)
            eigen = (c2 == eps * s_t * c1) & (c1 == eps * s_t2 * c2)
            closed[eps] = closed[eps] and bool(np.all(eigen | ~upper))
    return cross, closed[1], closed[-1]


def complement_pairs(basis: ClosureBasis) -> np.ndarray:
    """The lower mask of each complement pair {m, m ^ full} of the basis."""
    full = (1 << basis.n) - 1
    return np.array([m for m in basis.masks if m < m ^ full], dtype=np.int64)



@pytest.mark.parametrize("n", range(3, 11))
def test_mask_core_matches_table_oracles(n):
    basis = CLOSURES[n]
    sc = structure_constants(basis)
    partners = partner_sweep(basis)
    center = int(np.count_nonzero(partners == 0))
    assert np.array_equal(mask_killing_diagonal(basis.masks, partners), killing_diagonal(sc))
    assert center == center_dim(sc)
    assert basis.dim - center == derived_dim(sc)
    central = central_blades(basis)
    assert central.bit_count() == center_dim(sc)
    assert np.array_equal(central_blades_reference(basis), killing_diagonal(sc) == 0)
    assert central == bits_of(mask_array(basis)[killing_diagonal(sc) == 0].tolist())
    torus = greedy_torus(basis)
    assert torus_is_cartan(basis.masks, torus)
    assert len(torus) == rank_estimate(sc, trials=5, seed=0)


def test_bracket_coefficients_match_table():
    for n in (5, 6):
        basis = CLOSURES[n]
        sc = structure_constants(basis)
        m = np.array(basis.masks, dtype=np.int64)
        coeffs = _bracket_coeff(m[:, None], _swap_parity(m, n)[:, None], m[None, :])
        assert np.array_equal(coeffs, sc.coeffs), n
        full = (1 << n) - 1
        want = [blade_product(Blade(int(x)), Blade(full)).sign for x in m]
        assert _omega_sign(m).tolist() == want


@pytest.mark.parametrize("n", [5, 9])
def test_integer_split_matches_fraction_oracle(n):
    fast = split_check(CLOSURES[n])
    assert fast.passed
    assert fast.to_json() == split_check_fractions(CLOSURES[n]).to_json()


@pytest.mark.parametrize("n", [4, 7])
def test_fraction_oracle_refuses_n_without_a_split(n):
    with pytest.raises(ValueError):
        split_check_fractions(CLOSURES[n])


def test_split_certificate_matches_pair_oracles():
    for n in (5, 9, 13):
        basis = CLOSURES.get(n) or blade_closure(n, spin_generators(n).masks)
        res = split_check(basis)
        lo = complement_pairs(basis)
        cross, plus, minus = split_pair_checks(n, lo, _omega_sign(lo))
        assert res.applicable and res.passed and res.exhaustive, n
        assert (res.omega_central, res.omega_square) == (True, 1), n
        assert res.dims == (len(lo), len(lo)) and 2 * len(lo) == basis.dim, n
        assert (res.cross_vanishes, res.plus_closed, res.minus_closed) == (cross, plus, minus), n


@pytest.mark.parametrize("n", [5, 9])
def test_split_fails_on_one_flipped_eigenvector(n):
    lo = complement_pairs(CLOSURES[n])
    signs = _omega_sign(lo)
    assert split_pair_checks(n, lo, signs) == (True, True, True)
    for k in (0, len(lo) - 1):
        flipped = signs.copy()
        flipped[k] = -flipped[k]
        assert not all(split_pair_checks(n, lo, flipped)), (n, k)


def complement_hole_reference(masks, n):
    """The mask named by the sorted-array rule, or None when every complement is present.

    The complements of the ascending masks and the masks reversed are
    both descending; at their first difference the larger entry is
    missing from the other array, and the mask it comes from is named.
    """
    m = np.array(sorted(masks), dtype=np.int64)
    comp, back = m ^ ((1 << n) - 1), m[::-1]
    if np.array_equal(comp, back):
        return None
    i = int(np.argmax(comp != back))
    return int(m[i] if comp[i] > back[i] else back[i])


SPLIT_CLOSURES = {n: blade_closure(n, spin_generators(n).masks) for n in (5, 9, 13)}


def test_split_fails_without_one_complement_mask():
    basis = CLOSURES[9]
    dropped = ClosureBasis(n=9, bits=bits_of(basis.masks[1:]), provenance=basis.provenance)
    res = split_check(dropped)
    assert not res.passed
    assert "complement" in res.reason
    # the named mask is in the basis and its complement is not, wherever the hole is
    for k in (0, 1, basis.dim // 2, basis.dim - 1):
        probe = ClosureBasis(n=9, bits=bits_of(basis.masks[:k] + basis.masks[k + 1:]),
                             provenance=basis.provenance)
        named = int(split_check(probe).reason.split()[2], 16)
        assert named in probe.masks and named ^ 0x1FF not in probe.masks, k


@given(n=st.sampled_from(sorted(SPLIT_CLOSURES)), data=st.data())
def test_split_names_the_hole_of_the_sorted_rule(n, data):
    basis = SPLIT_CLOSURES[n]
    drop = data.draw(st.sets(st.integers(0, basis.dim - 1), min_size=1, max_size=3))
    kept = [m for i, m in enumerate(basis.masks) if i not in drop]
    res = split_check(ClosureBasis(n=n, bits=bits_of(kept), provenance=basis.provenance))
    want = complement_hole_reference(kept, n)
    if want is None:  # only whole complement pairs were dropped
        assert res.passed
    else:
        assert res.reason == f"complement of {want:#x} missing from basis"


@given(n=st.sampled_from([1, 5, 9]), data=st.data())
def test_split_mirror_names_the_hole_on_any_set(n, data):
    # with no generators the top blade is central, so any set reaches the
    # complement flip: the byte-reversed bitset, or at n = 1 part of one byte
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    res = split_check(ClosureBasis(n=n, bits=bits_of(masks), provenance=()))
    want = complement_hole_reference(masks, n)
    if want is None:
        assert res.passed and res.dims == (len(masks) // 2,) * 2
    else:
        assert res.reason == f"complement of {want:#x} missing from basis"


def traced_peak(f):
    """f() and the peak of the memory that tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_check_holds_few_bitsets_at_n_21():
    # the complement flip is the bitset's bytes reversed, each through a
    # bit-reversal table: one bytes copy and one int, not n delta swaps over
    # n parity patterns of 2^21 bits each, nor a string of 2^21 characters
    basis = blade_closure(21, spin_generators(21).masks)
    passed, peak = traced_peak(lambda: split_check(basis).passed)
    assert passed
    assert peak < 4 * (1 << 21) // 8


@given(n=st.integers(1, 10), data=st.data())
def test_q_perp_matches_brute_force(n, data):
    vectors = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    want = [x for x in range(1 << n) if not any(blades_anticommute(x, v) for v in vectors)]
    assert sorted(_q_perp(vectors, n)) == want
    # the zero mask and repeated vectors cut nothing
    assert sorted(_q_perp(vectors + [0] + vectors, n)) == want


@pytest.mark.parametrize("n", range(3, 29))
def test_spin_generators_q_perp_is_the_radical(n):
    # the generators span F_2^n, so only the radical of q commutes with all of them:
    # the center is at most one probe, and the top blade is central iff n is odd
    full = (1 << n) - 1
    assert sorted(_q_perp(spin_generators(n).masks, n)) == ([0, full] if n % 2 else [0])


def assert_torus_is_self_centralizing(masks, torus):
    """torus is abelian and the blades of masks commuting with it are torus itself."""
    assert not any(blades_anticommute(a, b) for a in torus for b in torus)
    assert centralizer_masks(masks, torus) == torus


@pytest.mark.parametrize("n", range(3, 17))
def test_greedy_torus_matches_reference(n):
    basis = blade_closure(n, spin_generators(n).masks)
    torus = greedy_torus(basis)
    assert_torus_is_self_centralizing(basis.masks, torus)
    assert len(torus) == len(greedy_torus_reference(basis.masks)) == closure_type(n).rank()


@given(n=st.integers(1, 10), data=st.data())
def test_greedy_torus_matches_reference_on_any_set(n, data):
    # maximal abelian, as the reference is; on an arbitrary set a maximal
    # abelian set need not be a largest one, so the sizes may differ
    masks = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=256)))
    assert_torus_is_self_centralizing(masks, greedy_torus(ClosureBasis(n, bits_of(masks), ())))


def test_greedy_torus_takes_ceil_half_n_picks(monkeypatch):
    # each pick lies outside the span K of the earlier ones, so it doubles K,
    # and K is isotropic, so there are at most ceil(n/2) picks; each round
    # lists K^perp of the picks so far, the last round all of them
    import enspin.analysis

    rounds = []
    q_perp = enspin.analysis._q_perp
    monkeypatch.setattr(enspin.analysis, "_q_perp",
                        lambda vectors, n: rounds.append(len(vectors)) or q_perp(vectors, n))
    for n in range(3, 17):
        rounds.clear()
        basis = blade_closure(n, spin_generators(n).masks)
        assert len(greedy_torus(basis)) == closure_type(n).rank()
        assert rounds[-1] == (n + 1) // 2, n
    assert closure_type(16).rank() > 16
    rnd = random.Random(0)
    for n in range(1, 11):
        for _ in range(20):
            rounds.clear()
            masks = sorted(rnd.sample(range(1 << n), rnd.randint(0, 1 << n)))
            assert_torus_is_self_centralizing(masks, greedy_torus(ClosureBasis(n, bits_of(masks), ())))
            assert rounds[-1] <= (n + 1) // 2, n


def test_center_and_torus_hold_a_few_bitsets_at_n_20():
    # K and K^perp are lists of n-bit masks, probed through one byte view of
    # 2^n bits; the center probes at most the top bit.  Neither builds a
    # pattern of 2^n bits per generator or per pick.  The lemma holds one
    # pattern of the blades squaring to -1 and counts the top blade out
    # where it is dropped (n = 19); the Killing check reads one bit and
    # builds nothing of 2^n bits
    at20, at19 = analyze(20), analyze(19)
    _, peak = traced_peak(lambda: (central_blades(at20.basis), greedy_torus(at20.basis)))
    assert peak < 3 * (1 << 20) // 8
    for bundle in (at20, at19):
        n = bundle.n
        passed, peak = traced_peak(lambda: lemma_containment_check(n, bundle.basis).passed)
        assert passed and peak < 3 * (1 << n) // 8, n
        status, peak = traced_peak(lambda: _killing_outcome(bundle).status)
        assert status == "pass" and peak < (1 << n) // 8 // 8, n


@settings(max_examples=40)
@given(n=st.integers(3, 10), data=st.data(), rnd=st.randoms(use_true_random=False))
def test_torus_is_maximal_in_any_order(n, data, rnd):
    masks = list(CLOSURES[n].masks)
    rnd.shuffle(masks)
    # the greedy rule in any order yields a maximal abelian set
    torus = greedy_torus_reference(masks)
    assert_torus_is_self_centralizing(masks, torus)
    assert len(torus) == len(greedy_torus(CLOSURES[n])) == closure_type(n).rank()
    arbitrary = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=256))
    rnd.shuffle(arbitrary)
    assert_torus_is_self_centralizing(arbitrary, greedy_torus_reference(arbitrary))


def test_certificates_reject_what_they_must():
    basis = CLOSURES[8]
    torus = greedy_torus(basis)
    assert not torus_is_cartan(basis.masks, torus[:-1])
    assert is_compact_basis(basis)
    assert not is_compact_basis(blade_closure(8, basis.provenance + (0b1,)))
    # v1v2 and v2v3 anticommute, so their bracket v1v3 is a target outside the set
    unclosed = np.zeros(8, dtype=np.int64)
    unclosed[[0b011, 0b110]] = 1
    counts, _ = anticommuting_pair_counts(unclosed)
    assert counts[0b101] > 0 and unclosed[0b101] == 0


@given(n=st.integers(1, 10), data=st.data())
def test_compactness_from_the_generators_matches_every_blade(n, data):
    # a closure blade is a generator or +-xg with x, g anticommuting, and (xg)^2 = -x^2 g^2
    gens = data.draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    basis = blade_closure(n, gens)
    assert is_compact_basis(basis) == all(m.bit_count() & 2 for m in basis.masks)


def test_analyze_is_exact_at_every_n():
    with pytest.raises(ValueError):
        analyze(5, exact_killing=False)
    for n in (4, 9, 10):
        bundle = analyze(n, exact_killing=None)
        assert bundle.killing_mode == "exact" and bundle.killing_ok
        assert bundle.compact


def test_analyze_does_not_certify_a_noncompact_torus(monkeypatch):
    # v1, v2 and v1v2 span sl(2, R): v1 squares to +1, so the algebra is not compact;
    # the torus is the seed v1v2, which anticommutes with v1 and v2
    noncompact = blade_closure(3, (0b001, 0b010))
    monkeypatch.setattr("enspin.analysis.blade_closure", lambda n, gens, **kwargs: noncompact)
    bundle = analyze(3)
    assert bundle.torus == (0b011,)
    assert not bundle.compact
