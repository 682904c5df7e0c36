"""The mask-native analysis core against the dense-table and Fraction oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enspin.analysis import (
    _bracket_coeff,
    _omega_sign,
    _swap_parity,
    analyze,
    center_dim,
    centralizer_masks,
    derived_dim,
    greedy_torus,
    is_compact_basis,
    killing_diagonal,
    mask_killing_diagonal,
    partner_sweep,
    rank_estimate,
    split_check,
    split_check_fractions,
    split_pair_checks,
    structure_constants,
    torus_is_cartan,
)
from enspin.bott import max_compact
from enspin.clifford import Blade, blade_product, blades_anticommute
from enspin.closure import ClosureBasis, blade_closure
from enspin.spinrep import spin_generators

CLOSURES = {n: blade_closure(n, spin_generators(n).masks) for n in range(3, 11)}


@pytest.mark.parametrize("n", range(3, 11))
def test_mask_core_matches_table_oracles(n):
    basis = CLOSURES[n]
    sc = structure_constants(basis)
    partners, derived = partner_sweep(basis)
    assert np.array_equal(mask_killing_diagonal(basis.masks, partners), killing_diagonal(sc))
    assert int(np.count_nonzero(partners == 0)) == center_dim(sc)
    assert derived == derived_dim(sc)
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


def test_split_is_exhaustive_without_sampling():
    for n in (5, 9, 13):
        res = split_check(blade_closure(n, spin_generators(n).masks))
        assert res.passed and res.exhaustive, n


@pytest.mark.parametrize("n", [5, 9])
def test_split_fails_on_one_flipped_eigenvector(n):
    full = (1 << n) - 1
    lo = np.array([m for m in CLOSURES[n].masks if m < m ^ full], dtype=np.int64)
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


@settings(max_examples=40)
@given(n=st.integers(3, 9), rnd=st.randoms(use_true_random=False))
def test_torus_is_maximal_in_any_order(n, rnd):
    masks = list(blade_closure(n, spin_generators(n).masks).masks)
    rnd.shuffle(masks)
    torus = greedy_torus(masks)
    assert len(torus) == (2 if n == 3 else max_compact(n).rank())
    assert not any(blades_anticommute(a, b) for a in torus for b in torus)
    assert set(centralizer_masks(masks, torus)) == set(torus)


def test_certificates_reject_what_they_must():
    basis = CLOSURES[8]
    torus = greedy_torus(basis.masks)
    assert not torus_is_cartan(basis.masks, torus[:-1])
    assert is_compact_basis(basis.masks)
    assert not is_compact_basis(basis.masks + (0b1,))
    with pytest.raises(ValueError):
        partner_sweep(ClosureBasis(n=3, masks=(0b011, 0b110), provenance=(0b011, 0b110)))


def test_analyze_is_exact_at_every_n():
    with pytest.raises(ValueError):
        analyze(5, exact_killing=False)
    for n in (4, 9, 10):
        bundle = analyze(n, exact_killing=None)
        assert bundle.killing_mode == "exact" and bundle.killing_ok
        assert bundle.rank_certified
