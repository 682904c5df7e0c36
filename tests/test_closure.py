import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from enspin.analysis import _walsh_hadamard, greedy_torus, mask_killing_diagonal, partner_sweep
from enspin.bott import max_compact
from enspin.clifford import Multivector, blades_anticommute
from enspin.closure import (
    ClosureBasis,
    LemmaContainment,
    blade_closure,
    general_closure,
    lemma_containment_check,
    predicted_masks,
)
from enspin.deltas import lower_bound_dim
from enspin.spinrep import spin_generators

EXPECTED_DIMS = {
    3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120, 9: 240, 10: 496, 11: 1023, 12: 2080,
    13: 4160, 14: 8256, 15: 16383, 16: 32640,
}


def spin_closure(n):
    return blade_closure(n, spin_generators(n).masks)


def anticommuting_pair_counts(s):
    """N(c) for every mask c, and the transform of s, for a 0/1 membership array s.

    s has length 2^n and marks a blade set S.  N(c) is the number of
    ordered pairs (x, y) in S x S with x ^ y = c whose blades
    anticommute; the second result is hat(s) = _walsh_hadamard(s).

    Sign identity: let eps(x) = (-1)^ceil(|x|/2).  Blades x and y commute
    up to the sign (-1)^(p_x p_y + |x & y|), with p the grade parity, and
    that sign is eps(x) eps(y) eps(c) for c = x ^ y.  Proof: with
    ceil(k/2) = (k + p_k)/2, |c| = |x| + |y| - 2|x & y| and
    p_c = p_x + p_y - 2 p_x p_y, the exponent sum is
    |x| + p_x + |y| + p_y - |x & y| - p_x p_y, which is |x & y| + p_x p_y
    mod 2.  So with F = eps s and * the XOR convolution, the pairs with
    XOR c number (S * S)(c) and their signs sum to eps(c) (F * F)(c), and
        N(c) = ((S * S)(c) - eps(c) (F * F)(c)) / 2.
    Each convolution is a transform of a squared transform:
    _walsh_hadamard(hat(s)^2) = 2^n (S * S), and likewise for F.

    Exactness: every value is an int64 and nothing is rounded or reduced.
    Forward partial sums are at most |S| <= 2^n.  By Parseval the entries
    of hat(s)^2 sum to 2^n |S|, and so do those of hat(F)^2 because
    F^2 = s, so every partial sum of the second pass is at most
    2^n |S| <= 2^(2n).
    """
    s = np.asarray(s, dtype=np.int64)
    size = s.size
    grade = np.bitwise_count(np.arange(size, dtype=np.int64)).astype(np.int64)
    eps = 1 - 2 * (((grade + 1) // 2) & 1)
    hat, hat_f = _walsh_hadamard(s), _walsh_hadamard(eps * s)
    conv, conv_f = _walsh_hadamard(hat * hat), _walsh_hadamard(hat_f * hat_f)
    return (conv - eps * conv_f) // (2 * size), hat


def fixpoint_closure(n, gens):
    """Walsh-Hadamard fixpoint: add every c with N(c) > 0 until a round adds nothing."""
    present = np.zeros(1 << n, dtype=np.int64)
    present[list(gens)] = 1
    while True:
        counts, _ = anticommuting_pair_counts(present)
        fresh = (counts > 0) & (present == 0)
        if not fresh.any():
            return tuple(np.flatnonzero(present).tolist())
        present[fresh] = 1


def lemma_reference(n, basis):
    """Set-based lemma check: the predicted mask set against the basis as a set."""
    have = set(basis.masks)
    want = predicted_masks(n)
    full = (1 << n) - 1
    return LemmaContainment(
        n=n,
        all_expected_present=not want - have,
        full_mask_present=full in have,
        full_mask_expected=full in want,
        wrong_grade_masks=sum(1 for m in have if m.bit_count() % 4 in (0, 1)),
        missing_masks=len(want - have),
        extra_masks=len(have - want),
        exactly_predicted=have == want,
    )


def oracle_closure(gens):
    """Set worklist: each new mask is tested against every earlier one, once."""
    members = sorted(set(gens))
    seen = set(members)
    for i, a in enumerate(members):
        for b in members[:i]:
            if blades_anticommute(a, b) and a ^ b not in seen:
                seen.add(a ^ b)
                members.append(a ^ b)
    return tuple(sorted(members))


@st.composite
def generator_sets(draw, max_n):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    return n, gens


@given(generator_sets(10))
def test_blade_closure_matches_set_worklist_oracle(case):
    n, gens = case
    basis = blade_closure(n, gens)
    assert basis.masks == oracle_closure(gens)
    assert basis.is_closed()


@given(generator_sets(12))
def test_blade_closure_matches_fixpoint_oracle(case):
    n, gens = case
    assert blade_closure(n, gens).masks == fixpoint_closure(n, gens)


@pytest.mark.parametrize("n", range(3, 17))
def test_spin_closure_matches_fixpoint_oracle(n):
    gens = spin_generators(n).masks
    assert blade_closure(n, gens).masks == fixpoint_closure(n, gens)


@pytest.mark.parametrize("n", range(17, 21))
def test_large_spin_closure_dimension(n):
    basis = blade_closure(n, spin_generators(n).masks, allow_large=True)
    assert basis.dim == lower_bound_dim(n)
    assert len(greedy_torus(basis.masks)) == max_compact(n).rank()
    # no center, so the derived algebra is all of it, and the Killing form is negative definite
    partners = partner_sweep(basis)
    assert np.all(partners > 0)
    assert np.all(mask_killing_diagonal(basis.masks, partners) < 0)


def test_spin_closure_matches_set_worklist_oracle():
    for n in range(3, 11):
        assert spin_closure(n).masks == oracle_closure(spin_generators(n).masks), n


@given(generator_sets(9))
def test_partner_sweep_matches_pairwise_count(case):
    n, gens = case
    masks = oracle_closure(gens)
    partners = partner_sweep(ClosureBasis(n=n, masks=masks, provenance=tuple(sorted(set(gens)))))
    want = [sum(blades_anticommute(a, b) for b in masks) for a in masks]
    assert partners.tolist() == want
    # the derived-algebra lemma: the blades with a partner are exactly the brackets
    with_partner = {m for m, k in zip(masks, partners.tolist()) if k > 0}
    assert with_partner == {a ^ b for a in masks for b in masks if blades_anticommute(a, b)}


@given(n=st.integers(1, 7), data=st.data())
def test_pair_counts_match_brute_force_on_any_set(n, data):
    members = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
    s = np.zeros(1 << n, dtype=np.int64)
    s[list(members)] = 1
    counts, s_hat = anticommuting_pair_counts(s)
    want = [0] * (1 << n)
    for a in members:
        for b in members:
            want[a ^ b] += blades_anticommute(a, b)
    assert counts.tolist() == want
    assert s_hat.tolist() == [
        sum((-1) ** (u & x).bit_count() for x in members) for u in range(1 << n)
    ]


def test_three_generator_case_by_hand():
    basis = spin_closure(3)
    assert basis.masks == (0b011, 0b101, 0b110, 0b111)
    assert basis.dim == 4


def test_dimensions_match_binomial_count():
    for n, want in EXPECTED_DIMS.items():
        basis = spin_closure(n)
        assert basis.dim == want, n
        assert basis.dim == lower_bound_dim(n), n


def test_result_is_a_fixpoint():
    for n in (3, 5, 6, 8):
        assert spin_closure(n).is_closed()


def test_closing_the_closure_changes_nothing():
    for n in (4, 6, 7):
        basis = spin_closure(n)
        again = blade_closure(n, basis.masks)
        assert again.masks == basis.masks


def test_generator_order_does_not_matter():
    rng = random.Random(13)
    for n in (4, 6, 9):
        reference = spin_closure(n)
        gens = list(spin_generators(n).masks)
        for _ in range(5):
            rng.shuffle(gens)
            assert blade_closure(n, gens).masks == reference.masks


def test_masks_are_sorted_and_unique():
    for n in (5, 8, 10):
        masks = spin_closure(n).masks
        assert list(masks) == sorted(set(masks))


def test_scalar_never_appears():
    for n in range(3, 13):
        assert 0 not in spin_closure(n).masks


def test_all_masks_have_grade_two_or_three_mod_four():
    for n in range(3, 13):
        for m in spin_closure(n).masks:
            assert m.bit_count() % 4 in (2, 3), (n, hex(m))


def test_full_mask_membership_follows_n_mod_four():
    # reachable exactly when the total grade n sits in the right residues
    for n in range(3, 13):
        basis = spin_closure(n)
        full = (1 << n) - 1
        present = full in basis.masks
        expect = n == 3 or (n % 4 == 2 and n >= 6)
        assert present == expect, n


def test_lemma_containment_exact_match():
    for n in range(3, 13):
        basis = spin_closure(n)
        rec = lemma_containment_check(n, basis)
        assert rec.passed, (n, rec)
        assert rec.all_expected_present
        assert rec.wrong_grade_masks == 0
        assert rec.missing_masks == 0 and rec.extra_masks == 0


@pytest.mark.parametrize("n", range(3, 17))
def test_lemma_check_matches_set_reference(n):
    basis = spin_closure(n)
    masks = basis.masks
    full = (1 << n) - 1
    # as computed, one mask dropped, the full mask toggled, one mask of
    # grade 4, of grade 0 and of grade 2 beyond n bits added
    cases = [masks, masks[1:], tuple(m for m in masks if m != full)]
    cases += [tuple(sorted(set(masks) | {extra})) for extra in (full, 0, (1 << n) | 1)]
    if n >= 4:
        cases.append(tuple(sorted(masks + (0b1111,))))
    for case in cases:
        probe = ClosureBasis(n=n, masks=case, provenance=basis.provenance)
        assert lemma_containment_check(n, probe) == lemma_reference(n, probe), (n, len(case))


def test_predicted_masks_cardinality():
    for n in range(3, 17):
        assert len(predicted_masks(n)) == lower_bound_dim(n)


def test_closure_validates_input():
    with pytest.raises(ValueError):
        blade_closure(0, [1])
    with pytest.raises(ValueError):
        blade_closure(3, [])
    with pytest.raises(ValueError):
        blade_closure(3, [0])
    with pytest.raises(ValueError):
        blade_closure(3, [1 << 3])
    with pytest.raises(ValueError):
        blade_closure(17, [3])  # needs allow_large
    with pytest.raises(ValueError):
        blade_closure(25, [3], allow_large=True)  # beyond the hard ceiling


def test_closure_of_commuting_blades_is_just_the_generators():
    # v1v2 and v3v4 commute, so nothing new appears
    basis = blade_closure(4, [0b0011, 0b1100])
    assert basis.masks == (0b0011, 0b1100)


def test_provenance_records_sorted_generators():
    basis = blade_closure(4, [0b1100, 0b0011])
    assert basis.provenance == (0b0011, 0b1100)


def test_json_serialization_round_trips_masks():
    basis = spin_closure(5)
    blob = basis.to_json()
    assert blob["n"] == 5 and blob["dim"] == 20
    assert [int(s, 16) for s in blob["masks"]] == list(basis.masks)


def test_general_closure_agrees_with_blade_closure():
    for n in range(3, 9):
        fast = spin_closure(n)
        gens = [Multivector({m: 1}, n) for m in spin_generators(n).masks]
        general = general_closure(n, gens)
        assert general.rank == fast.dim, n
        for m in fast.masks:
            assert general.contains_mask(m), (n, hex(m))


def test_general_closure_handles_non_blade_generators():
    # v1v2 + v1v2v3 and v2v3: brackets recover v1v3 and v1v2, and the
    # top blade falls out as the difference, so the span is all four
    gens = [Multivector({0b011: 1, 0b111: 1}, 3), Multivector({0b110: 1}, 3)]
    general = general_closure(3, gens)
    assert general.rank == 4
    for m in (0b011, 0b101, 0b110, 0b111):
        assert general.contains_mask(m)


def test_general_closure_respects_central_elements():
    # the top blade is central at n=3, so it adds nothing to v1v2 + v2v3
    gens = [Multivector({0b011: 1, 0b110: 1}, 3), Multivector({0b111: 1}, 3)]
    assert general_closure(3, gens).rank == 2


def test_general_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        general_closure(3, [])
    with pytest.raises(ValueError):
        general_closure(3, [Multivector.zero(3)])
    with pytest.raises(ValueError):
        general_closure(3, [Multivector({1: 1}, 4)])


def test_is_closed_detects_a_hole():
    # v1v2 and v2v3 anticommute; dropping their bracket target breaks closure
    broken = ClosureBasis(n=3, masks=(0b011, 0b110), provenance=(0b011, 0b110))
    assert blades_anticommute(0b011, 0b110)
    assert not broken.is_closed()
