import random

import numpy as np
import pytest

from enspin.analysis import analyze, classify, split_check
from enspin.closure import ClosureBasis, blade_closure
from enspin.linalg import is_negative_definite
from enspin.multivector import Multivector, bracket
from enspin.oracles import (
    StructureConstants,
    ad_matrix,
    center_dim,
    derived_dim,
    killing_diagonal,
    killing_form,
    killing_negative_definite_check,
    rank_estimate,
    structure_constants,
)
from enspin.spinrep import spin_generators


def spin_closure(n):
    return blade_closure(n, spin_generators(n).masks)


# --- oracles over the dense blade table ------------------------------------

def bracket_coords(sc: StructureConstants, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of [x, y] for integer coordinate vectors x, y: ad(x) applied to y."""
    return ad_matrix(sc, x) @ np.asarray(y, dtype=np.int64)


def antisymmetry_holds(sc: StructureConstants) -> bool:
    c = sc.coeffs
    t = sc.targets
    if not np.array_equal(c, -c.T):
        return False
    both = (c != 0) & (c.T != 0)
    return bool(np.all(t[both] == t.T[both])) and bool(np.all(c.diagonal() == 0))


def table_jacobi_holds(sc: StructureConstants, *, samples: int = 2000, seed: int = 0) -> bool:
    """[[i,j],k] + [[j,k],i] + [[k,i],j] = 0, exhaustively for d <= 50."""

    def term(i: int, j: int, k: int, acc: dict[int, int]) -> None:
        c1 = int(sc.coeffs[i, j])
        if c1 == 0:
            return
        t1 = int(sc.targets[i, j])
        c2 = int(sc.coeffs[t1, k])
        if c2 == 0:
            return
        t2 = int(sc.targets[t1, k])
        acc[t2] = acc.get(t2, 0) + c1 * c2

    def triple_ok(i: int, j: int, k: int) -> bool:
        acc: dict[int, int] = {}
        term(i, j, k, acc)
        term(j, k, i, acc)
        term(k, i, j, acc)
        return all(v == 0 for v in acc.values())

    d = sc.d
    if d <= 50:
        return all(
            triple_ok(i, j, k)
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(j + 1, d)
        )
    rng = random.Random(seed)
    return all(
        triple_ok(rng.randrange(d), rng.randrange(d), rng.randrange(d))
        for _ in range(samples)
    )


def test_structure_constants_against_multivector_brackets():
    for n in (3, 4, 5):
        basis = spin_closure(n)
        sc = structure_constants(basis)
        for i, a in enumerate(basis.masks):
            for j, b in enumerate(basis.masks):
                br = bracket(Multivector({a: 1}, n), Multivector({b: 1}, n))
                c = int(sc.coeffs[i, j])
                if c == 0:
                    assert br.is_zero(), (n, i, j)
                else:
                    assert br.terms == {basis.masks[sc.targets[i, j]]: c}, (n, i, j)


def test_structure_constants_antisymmetry_and_jacobi():
    for n in (3, 4, 5, 6):
        sc = structure_constants(spin_closure(n))
        assert antisymmetry_holds(sc)
        assert table_jacobi_holds(sc)


def test_structure_constants_jacobi_sampled_large():
    sc = structure_constants(spin_closure(9))
    assert table_jacobi_holds(sc, samples=1500, seed=1)


def test_structure_constants_coefficients_are_plus_minus_two():
    sc = structure_constants(spin_closure(6))
    vals = set(np.unique(sc.coeffs))
    assert vals == {-2, 0, 2}


def test_structure_constants_reject_unclosed_basis():
    broken = ClosureBasis(n=3, bits=1 << 0b011 | 1 << 0b110, provenance=(0b011, 0b110))
    with pytest.raises(ValueError):
        structure_constants(broken)


def test_bracket_coords_matches_multivector_arithmetic():
    rng = random.Random(2)
    basis = spin_closure(4)
    sc = structure_constants(basis)

    def as_mv(coords):
        return Multivector({m: int(c) for m, c in zip(basis.masks, coords)}, 4)

    for _ in range(100):
        x = np.array([rng.randint(-3, 3) for _ in range(sc.d)])
        y = np.array([rng.randint(-3, 3) for _ in range(sc.d)])
        assert as_mv(bracket_coords(sc, x, y)) == bracket(as_mv(x), as_mv(y))
    # each column of ad(x) is the bracket of x with one basis blade
    a = ad_matrix(sc, x)
    for j, m in enumerate(basis.masks):
        assert as_mv(a[:, j]) == bracket(as_mv(x), Multivector({m: 1}, 4)), j


def flipped(sc, *cells):
    coeffs = sc.coeffs.copy()
    for i, j in cells:
        coeffs[i, j] = -coeffs[i, j]
    return sc._replace(coeffs=coeffs)


def test_antisymmetry_rejects_one_flipped_coefficient():
    sc = structure_constants(spin_closure(4))
    i, j = (int(v) for v in np.argwhere(sc.coeffs != 0)[0])
    assert antisymmetry_holds(sc)
    assert not antisymmetry_holds(flipped(sc, (i, j)))


def test_jacobi_rejects_a_flipped_bracket_that_keeps_antisymmetry():
    sc = structure_constants(spin_closure(4))
    i, j = (int(v) for v in np.argwhere(sc.coeffs != 0)[0])
    bad = flipped(sc, (i, j), (j, i))
    assert antisymmetry_holds(bad)
    assert table_jacobi_holds(sc)
    assert not table_jacobi_holds(bad)


def brute_force_killing(sc):
    mats = []
    for i in range(sc.d):
        e = np.zeros(sc.d, dtype=np.int64)
        e[i] = 1
        mats.append(ad_matrix(sc, e))
    k = np.zeros((sc.d, sc.d), dtype=np.int64)
    for i in range(sc.d):
        for j in range(sc.d):
            k[i, j] = np.trace(mats[i] @ mats[j])
    return k


def test_killing_form_against_trace_oracle():
    for n in (3, 4, 5):
        sc = structure_constants(spin_closure(n))
        brute = brute_force_killing(sc)
        fast = killing_form(sc)
        for i in range(sc.d):
            for j in range(sc.d):
                assert fast[i][j] == int(brute[i, j]), (n, i, j)
        diag = killing_diagonal(sc)
        assert np.array_equal(diag, brute.diagonal())


def test_killing_diagonal_counts_anticommuting_partners():
    from enspin.clifford import blades_anticommute

    for n in (4, 6):
        basis = spin_closure(n)
        sc = structure_constants(basis)
        diag = killing_diagonal(sc)
        for i, m in enumerate(basis.masks):
            partners = sum(1 for b in basis.masks if blades_anticommute(m, b))
            assert int(diag[i]) == -4 * partners


def test_killing_is_ad_invariant():
    rng = random.Random(17)
    basis = spin_closure(5)
    sc = structure_constants(basis)
    diag = killing_diagonal(sc)

    def k(u, v):
        return int(np.sum(u * v * diag))

    for _ in range(200):
        x = np.array([rng.randint(-4, 4) for _ in range(sc.d)])
        y = np.array([rng.randint(-4, 4) for _ in range(sc.d)])
        z = np.array([rng.randint(-4, 4) for _ in range(sc.d)])
        assert k(bracket_coords(sc, x, y), z) + k(y, bracket_coords(sc, x, z)) == 0


def test_killing_negative_definite_exact_small_n():
    for n in (4, 5, 6, 7, 8):
        sc = structure_constants(spin_closure(n))
        ok, detail = killing_negative_definite_check(sc)
        assert ok, (n, detail)
        assert "exact" in detail


def test_killing_mask_certificate_agrees_with_bareiss_oracle():
    for n in range(3, 9):
        bundle = analyze(n)
        sc = structure_constants(bundle.basis)
        ok, _ = killing_negative_definite_check(sc)
        assert bundle.killing_ok == ok, n
        diag = killing_diagonal(sc)
        central = np.array([bundle.central >> m & 1 for m in bundle.basis.masks], dtype=bool)
        assert np.all(diag[central] == 0), n
        assert np.all(diag[~central] < 0), n
        assert bundle.killing_mode == "exact"


def test_killing_degenerate_at_three():
    sc = structure_constants(spin_closure(3))
    assert not is_negative_definite(killing_form(sc))
    diag = killing_diagonal(sc)
    # radical is exactly the top blade line
    basis = spin_closure(3)
    top = basis.masks.index(0b111)
    assert int(diag[top]) == 0
    assert all(int(diag[i]) < 0 for i in range(sc.d) if i != top)


def test_center_and_derived_dims():
    sc3 = structure_constants(spin_closure(3))
    assert center_dim(sc3) == 1
    assert derived_dim(sc3) == 3
    for n in (4, 5, 6, 7, 8):
        sc = structure_constants(spin_closure(n))
        assert center_dim(sc) == 0, n
        assert derived_dim(sc) == sc.d, n


def test_rank_estimates_match_types():
    expected = {4: 2, 5: 4, 6: 4, 7: 7, 8: 8}
    for n, want in expected.items():
        sc = structure_constants(spin_closure(n))
        assert rank_estimate(sc, trials=5, seed=0) == want, n


def test_rank_estimate_is_seed_stable():
    sc = structure_constants(spin_closure(5))
    a = rank_estimate(sc, trials=3, seed=42)
    b = rank_estimate(sc, trials=3, seed=42)
    assert a == b == 4


def test_split_applicable_only_for_one_mod_four():
    assert not split_check(spin_closure(4)).applicable
    assert not split_check(spin_closure(6)).applicable
    assert not split_check(spin_closure(7)).applicable
    assert "even" in split_check(spin_closure(8)).reason
    assert "-1" in split_check(spin_closure(7)).reason


def test_split_at_five_gives_ten_ten():
    res = split_check(spin_closure(5))
    assert res.applicable and res.passed
    assert res.dims == (10, 10)
    assert res.omega_square == 1 and res.omega_central
    assert res.cross_vanishes and res.plus_closed and res.minus_closed
    assert res.exhaustive


def test_split_at_nine_gives_onetwenty_onetwenty():
    res = split_check(spin_closure(9))
    assert res.passed
    assert res.dims == (120, 120)
    assert res.exhaustive


def test_classify_three_is_u2():
    r = classify(3)
    assert r.display == "u(2)"
    assert r.verdict
    assert r.dim == 4 and r.center_dim == 1 and r.derived_dim == 3 and r.rank == 2


def test_classify_four_to_eight():
    expected = {4: "sp(2)", 5: "sp(2) ⊕ sp(2)", 6: "sp(4)", 7: "su(8)", 8: "so(16)"}
    for n, want in expected.items():
        r = classify(n)
        assert r.display == want and r.verdict, (n, r.failures)
        assert r.killing_negative_definite
        assert r.center_dim == 0


def test_classify_split_dims_recorded_only_when_applicable():
    assert classify(5).split_dims == (10, 10)
    assert classify(6).split_dims is None


def test_classify_serialization():
    blob = classify(4).to_json()
    assert blob["verdict"] is True
    assert blob["matched_type"]["family"] == "sp"
    assert blob["display"] == "sp(2)"
    assert blob["failures"] == []


def test_analyze_rejects_small_n():
    with pytest.raises(ValueError):
        analyze(2)
