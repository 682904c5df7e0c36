"""The mask-native analysis core against the dense-table, integer pair and Fraction oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspin.analysis import (
    _anticommute,
    analyze,
    center_dim,
    derived_dim,
    greedy_torus,
    is_compact_basis,
    killing_diagonal,
    mask_killing_diagonal,
    partner_sweep,
    rank_estimate,
    split_check,
    split_check_fractions,
    structure_constants,
)
from enspin.bott import max_compact
from enspin.clifford import Blade, blade_product, blades_anticommute
from enspin.closure import ClosureBasis, blade_closure
from enspin.spinrep import spin_generators
from test_closure import anticommuting_pair_counts

CLOSURES = {n: blade_closure(n, spin_generators(n).masks) for n in range(3, 11)}

# --- centralizer oracles for the greedy torus ------------------------------


def greedy_torus_reference(masks) -> tuple[int, ...]:
    """Blades taken in the given order, each kept when it commutes with all kept so far."""
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

    By the injectivity argument of partner_sweep, the centralizer of
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
    an Introduction, ch. IV), and is_compact_basis supplies compactness.
    """
    return is_compact_basis(masks) and set(centralizer_masks(masks, torus)) == set(torus)


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
    torus = greedy_torus(basis.masks)
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


def test_split_fails_without_one_complement_mask():
    basis = CLOSURES[9]
    dropped = ClosureBasis(n=9, masks=basis.masks[1:], provenance=basis.provenance)
    res = split_check(dropped)
    assert not res.passed
    assert "complement" in res.reason


@pytest.mark.parametrize("n", range(3, 17))
def test_greedy_torus_matches_reference(n):
    masks = blade_closure(n, spin_generators(n).masks).masks
    assert greedy_torus(masks) == greedy_torus_reference(masks)


def assert_torus_is_maximal(masks) -> tuple[int, ...]:
    torus = greedy_torus(masks)
    assert torus == greedy_torus_reference(masks)
    assert not any(blades_anticommute(a, b) for a in torus for b in torus)
    assert centralizer_masks(masks, torus) == torus
    return torus


@settings(max_examples=40)
@given(n=st.integers(3, 10), data=st.data(), rnd=st.randoms(use_true_random=False))
def test_torus_is_maximal_in_any_order(n, data, rnd):
    masks = list(CLOSURES[n].masks)
    rnd.shuffle(masks)
    torus = assert_torus_is_maximal(masks)
    assert len(torus) == (2 if n == 3 else max_compact(n).rank())
    arbitrary = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=256))
    rnd.shuffle(arbitrary)
    assert_torus_is_maximal(arbitrary)


def test_certificates_reject_what_they_must():
    basis = CLOSURES[8]
    torus = greedy_torus(basis.masks)
    assert not torus_is_cartan(basis.masks, torus[:-1])
    assert is_compact_basis(basis.masks)
    assert not is_compact_basis(basis.masks + (0b1,))
    # v1v2 and v2v3 anticommute, so their bracket v1v3 is a target outside the set
    unclosed = np.zeros(8, dtype=np.int64)
    unclosed[[0b011, 0b110]] = 1
    counts, _ = anticommuting_pair_counts(unclosed)
    assert counts[0b101] > 0 and unclosed[0b101] == 0


def test_analyze_is_exact_at_every_n():
    with pytest.raises(ValueError):
        analyze(5, exact_killing=False)
    for n in (4, 9, 10):
        bundle = analyze(n, exact_killing=None)
        assert bundle.killing_mode == "exact" and bundle.killing_ok
        assert bundle.rank_certified


def test_analyze_does_not_certify_a_noncompact_torus(monkeypatch):
    # v1, v2 and v1v2 span sl(2, R): v1 squares to +1, so the algebra is not compact
    noncompact = blade_closure(3, (0b001, 0b010))
    monkeypatch.setattr("enspin.analysis.blade_closure", lambda n, gens, **kwargs: noncompact)
    bundle = analyze(3)
    assert bundle.torus == (0b001,)
    assert not bundle.rank_certified
