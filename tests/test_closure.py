import ast
import json
import random
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enspin.analysis import central_blades, classify, greedy_torus
from enspin.bott import max_compact
from enspin.cli import main
from enspin.clifford import _commutation_vector, blades_anticommute
from enspin.closure import (
    ClosureBasis,
    LemmaContainment,
    _negative_square_pattern,
    _parity_pattern,
    _set_bits,
    _xor_translate,
    blade_closure,
    lemma_containment_check,
)
from enspin.deltas import drops_top_blade, lower_bound_dim
from enspin.linalg import EchelonBasis
from enspin.multivector import Multivector, bracket
from enspin.report import run_verification
from enspin.spinrep import spin_generators
from enspin.table import algebra_table

EXPECTED_DIMS = {
    3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120, 9: 240, 10: 496, 11: 1023, 12: 2080,
    13: 4160, 14: 8256, 15: 16383, 16: 32640,
}


def spin_closure(n):
    return blade_closure(n, spin_generators(n).masks)


# --- references for the bitset kernels: numpy arrays of masks -------------

def bits_of(masks) -> int:
    """The bitset of a list of masks: bit m set for each mask m."""
    buf = bytearray(max(masks, default=0) // 8 + 1)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def mask_array(basis) -> np.ndarray:
    """The masks of a closure basis as an ascending int64 array."""
    return np.array(basis.masks, dtype=np.int64)


def _anticommute(a, b) -> np.ndarray:
    """Boolean array: the blades a and b anticommute (|a||b| - |a & b| odd).

    For even |b| that is |a & b| odd, for odd |b| it is |a & ~b| odd (the
    rule of enspin.clifford._commutation_vector), so one popcount of
    a & h_b decides, with h_b = b or ~b.
    """
    h = np.where(np.bitwise_count(b) & 1, ~b, b)
    return (np.bitwise_count(a & h) & 1).astype(bool)


def walk_closure(n, gens) -> np.ndarray:
    """The closure as an ascending int64 array, by a breadth-first walk from the generators.

    Each level is one frontier x generators outer product; candidates
    already present are dropped, and the rest are deduplicated through
    an int32 slot array: each candidate writes its position there, and
    the one that reads back its own position is kept.
    """
    g = np.array(sorted(set(gens)), dtype=np.int64)
    present = np.zeros(1 << n, dtype=bool)
    slot = np.empty(1 << n, dtype=np.int32)
    present[g] = True
    frontier = g
    while frontier.size:
        fresh = (frontier[:, None] ^ g)[_anticommute(frontier[:, None], g)]
        fresh = fresh[~present[fresh]]
        at = np.arange(fresh.size, dtype=np.int32)
        slot[fresh] = at
        frontier = fresh[slot[fresh] == at]
        present[frontier] = True
    return np.flatnonzero(present)


def central_blades_reference(basis) -> np.ndarray:
    """One bool per mask of basis.masks: True when it commutes with every generator."""
    masks = mask_array(basis)
    anti = np.zeros(masks.size, dtype=bool)
    for g in basis.provenance:
        anti |= _anticommute(masks, np.int64(g))
    return ~anti


def _walsh_hadamard(a) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a length-2^n array, as a new int64 array.

    Entry u of the result is sum over x of a(x) (-1)^|u & x|.  Applying
    it twice multiplies by 2^n.  One butterfly pass per bit, so O(n 2^n)
    additions.
    """
    out = np.array(a, dtype=np.int64)
    size = out.size
    h = 1
    while h < size:
        v = out.reshape(size // (2 * h), 2, h)
        low = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        np.subtract(low, v[:, 1, :], out=v[:, 1, :])
        h *= 2
    return out


def partner_sweep(basis):
    """Oracle for central_blades: the anticommuting-partner count of each blade.

    a and y commute up to (-1)^q(a, y) with q(a, y) = p_a p_y + |a & y|
    mod 2 and p the grade parity, which is (-1)^|h_a & y| with h_a = a
    for even |a| and h_a = a ^ full for odd |a| (then
    p_y + |a & y| = |y| - |a & y| mod 2).  Summed over the basis S that
    is S^(h_a), the transform of its membership array, so a has
    (|S| - S^(h_a)) / 2 partners.  The central blades are those with
    none, and the derived algebra is spanned by the rest (the lemmas of
    central_blades).
    """
    n = basis.n
    masks = mask_array(basis)
    present = np.zeros(1 << n, dtype=bool)
    present[masks] = True
    s_hat = _walsh_hadamard(present)
    h = np.where(np.bitwise_count(masks) & 1, masks ^ ((1 << n) - 1), masks)
    return (len(masks) - s_hat[h]) // 2


def mask_killing_diagonal(masks, partners):
    """Oracle for the Killing sign rule: K_ii = 4 b_i^2 partners_i, as int64.

    The square b_i^2 = (-1)^(k(k-1)/2) for a blade of grade k is computed
    here from the grade.  The form is diagonal (central_blades), so it
    is negative definite exactly when every entry is below 0.
    """
    grade = np.bitwise_count(np.asarray(masks, dtype=np.int64)).astype(np.int64)
    square = 1 - 2 * ((grade * (grade - 1) // 2) & 1)
    return 4 * square * np.asarray(partners, dtype=np.int64)


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


def predicted_masks(n: int) -> frozenset[int]:
    """The mask set the closure of the spin generators is expected to span.

    All masks of grade 2 or 3 mod 4, without the full mask where it is
    unreachable (drops_top_blade).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    full = (1 << n) - 1
    out = {m for m in range(1, 1 << n) if m.bit_count() % 4 in (2, 3)}
    if drops_top_blade(n):
        out.discard(full)
    return frozenset(out)


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
        missing_masks=len(want - have),
        extra_masks=len(have - want),
        exactly_predicted=have == want,
        least_missing=min(want - have, default=None),
        least_extra=min(have - want, default=None),
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


def is_closed(basis: ClosureBasis) -> bool:
    """Re-check the defining closure property (quadratic, for tests)."""
    mask_set = set(basis.masks)
    return all(
        a ^ b in mask_set
        for i, a in enumerate(basis.masks)
        for b in basis.masks[i + 1:]
        if blades_anticommute(a, b)
    )


def general_closure(n: int, generators: Sequence[Multivector]) -> EchelonBasis:
    """Echelon basis of the Lie span of the generators, closed by sift-until-fixpoint.

    Worklist in breadth-first order: each accepted vector is bracketed
    against everything accepted before it, so every unordered pair is
    handled exactly once and the termination bound is the ambient 2^n.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("generator list is empty")
    for g in gens:
        if g.dim != n:
            raise ValueError(f"generator dimension {g.dim} != ambient {n}")
        if g.is_zero():
            raise ValueError("zero generator")
    basis = EchelonBasis(1 << n)
    reps: list[Multivector] = []
    for g in gens:
        if basis.sift(g.terms):
            reps.append(g)
    q = 0
    while q < len(reps):
        for i in range(q):
            z = bracket(reps[i], reps[q])
            if not z.is_zero() and basis.sift(z.terms):
                reps.append(z)
                if len(reps) > (1 << n):
                    raise AssertionError("closure exceeded ambient dimension")
        q += 1
    return basis


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
    assert is_closed(basis)


@given(st.integers(0, 1 << 300), st.integers(0, 1 << 300))
def test_set_bits_lists_every_set_bit(x, y):
    bits = x & y  # sparse as well as dense sets
    for b in (x, bits):
        assert _set_bits(b) == tuple(i for i in range(b.bit_length()) if b >> i & 1)
        assert _set_bits(b, 1 << 16) == tuple((1 << 16) + i for i in _set_bits(b))


@given(n=st.integers(1, 7), data=st.data())
def test_bitset_kernels_match_their_definitions(n, data):
    g = data.draw(st.integers(0, (1 << n) - 1))
    members = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
    bits = bits_of(sorted(members))
    highs = [_parity_pattern(1 << b, n) for b in range(n)]
    # the delta-swap mask of bit b is the masks with bit b set
    assert [_set_bits(h) for h in highs] == [
        tuple(x for x in range(1 << n) if x >> b & 1) for b in range(n)]
    assert _xor_translate(bits, g, highs) == bits_of([x ^ g for x in members])
    assert _set_bits(_parity_pattern(_commutation_vector(g, n), n)) == tuple(
        x for x in range(1 << n) if blades_anticommute(x, g))
    assert _set_bits(_parity_pattern(g, n)) == tuple(
        x for x in range(1 << n) if (x & g).bit_count() & 1)
    # the lemma's predicted set: the blades that square to -1
    assert _set_bits(_negative_square_pattern(n)) == tuple(
        x for x in range(1 << n) if x.bit_count() % 4 in (2, 3))


@given(n=st.integers(1, 18), data=st.data())
@example(n=18, data=None)  # four tiles, the middle two empty
def test_basis_storage_answers_match_brute_force(n, data):
    # below n = 3 the bitset is one byte, which the flip mirrors; from n = 17
    # on it spans several 2^16-bit tiles, and a few masks leave some empty
    full = (1 << n) - 1
    if data is None:
        masks, queries = [3, 0xffff, 3 << 16, full], [full, 1 << 16, 2 << 16, 0, 3]
    else:
        masks = sorted(data.draw(st.sets(st.integers(0, full), max_size=64)))
        queries = data.draw(st.lists(st.integers(0, full), max_size=64))
    basis, members = ClosureBasis(n, bits_of(masks), ()), set(masks)
    probes = range(1 << n) if n <= 10 else [*queries, *masks, 0, full]
    assert [x in basis for x in probes] == [x in members for x in probes]
    assert basis.held(queries + masks) == [x for x in queries + masks if x in members]
    assert basis.flipped() == bits_of([m ^ full for m in masks])
    tiles = list(basis.tile_masks())
    assert all(tiles) and [m for tile in tiles for m in tile] == masks
    assert [len({m >> 16 for m in tile}) for tile in tiles] == [1] * len(tiles)


def test_only_closure_reads_the_bitset_layout():
    # the bitset's layout is ClosureBasis's: no other module serializes an int,
    # right-shifts a .bits attribute, whatever the object it belongs to, or
    # reads an underscore name of enspin.closure
    offenders = []
    for path in sorted((Path(__file__).parents[1] / "src" / "enspin").glob("*.py")):
        if path.name == "closure.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes"):
                offenders.append(f"{path.name}:{node.lineno} {node.attr}")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)
                  and isinstance(node.left, ast.Attribute) and node.left.attr == "bits"):
                offenders.append(f"{path.name}:{node.lineno} .bits >>")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "closure" and node.attr.startswith("_")):
                offenders.append(f"{path.name}:{node.lineno} closure.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "closure":
                offenders += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                              if a.name.startswith("_")]
    assert offenders == []


@settings(max_examples=60)
@given(generator_sets(10), st.integers(3, 5))
def test_tiled_closure_matches_set_worklist_oracle(case, tile_log):
    # blade_closure relaxes tiles of 2^16 bits; small tiles put the
    # cross-tile steps within reach of the set oracle
    n, gens = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("enspin.closure._TILE_LOG", tile_log)
        basis = blade_closure(n, gens)
    assert basis.masks == oracle_closure(gens)


@pytest.mark.parametrize("n", range(17, 20))
def test_tiled_spin_closure_matches_the_walk(n):
    gens = spin_generators(n).masks
    assert np.array_equal(mask_array(blade_closure(n, gens)), walk_closure(n, gens))


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
    basis = blade_closure(n, spin_generators(n).masks)
    assert basis.dim == lower_bound_dim(n)
    assert len(greedy_torus(basis)) == max_compact(n).rank()
    # no center, so the derived algebra is all of it, and the Killing form is negative definite
    partners = partner_sweep(basis)
    assert np.all(partners > 0)
    assert central_blades(basis) == 0
    assert np.all(mask_killing_diagonal(basis.masks, partners) < 0)


def test_spin_closure_matches_set_worklist_oracle():
    for n in range(3, 11):
        assert spin_closure(n).masks == oracle_closure(spin_generators(n).masks), n


@given(generator_sets(9))
def test_partner_sweep_matches_pairwise_count(case):
    n, gens = case
    masks = oracle_closure(gens)
    basis = ClosureBasis(n=n, bits=bits_of(masks), provenance=tuple(sorted(set(gens))))
    partners = partner_sweep(basis)
    want = [sum(blades_anticommute(a, b) for b in masks) for a in masks]
    assert partners.tolist() == want
    # the center rule: central exactly when commuting with every generator
    assert np.array_equal(central_blades_reference(basis), partners == 0)
    assert central_blades(basis) == bits_of([m for m, k in zip(masks, want) if k == 0])
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
        assert is_closed(spin_closure(n))


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


def test_mask_array_is_built_once_and_read_only():
    basis = spin_closure(8)
    masks = basis.masks
    assert basis.masks is masks
    assert isinstance(masks, tuple)


def test_computing_paths_never_build_the_mask_tuple(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a computing path read ClosureBasis.masks")

    monkeypatch.setattr(ClosureBasis, "masks", property(refuse))
    # n=3 is the Killing special case; the split is applicable at n=5 and 9
    for n in range(3, 10):
        assert run_verification(n).verdict, n
    assert classify(6).verdict
    assert algebra_table(12)[-1]["closure_dim"] == lower_bound_dim(12)
    # the closure command lists the bitset's four 2^16-bit tiles at n = 18
    assert main(["closure", "--n", "18"]) == 0
    assert len(json.loads(capsys.readouterr().out)["masks"]) == lower_bound_dim(18)
    assert main(["closure", "--n", "18", "--format", "text"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == lower_bound_dim(18) + 2


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
        probe = ClosureBasis(n=n, bits=bits_of(case), provenance=basis.provenance)
        assert lemma_containment_check(n, probe) == lemma_reference(n, probe), (n, len(case))


@given(n=st.integers(3, 9), data=st.data())
def test_lemma_check_matches_set_reference_on_any_set(n, data):
    # masks of up to n + 2 bits, so some lie beyond the n bits of the ambient space
    masks = data.draw(st.lists(st.integers(0, (1 << (n + 2)) - 1), unique=True))
    probe = ClosureBasis(n=n, bits=bits_of(masks), provenance=spin_generators(n).masks)
    assert lemma_containment_check(n, probe) == lemma_reference(n, probe)


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
        blade_closure(25, [3])  # beyond the ceiling


def test_closure_of_commuting_blades_is_just_the_generators():
    # v1v2 and v3v4 commute, so nothing new appears
    basis = blade_closure(4, [0b0011, 0b1100])
    assert basis.masks == (0b0011, 0b1100)


def test_provenance_records_sorted_generators():
    basis = blade_closure(4, [0b1100, 0b0011])
    assert basis.provenance == (0b0011, 0b1100)


def test_json_serialization_round_trips_masks(capsys):
    basis = spin_closure(5)
    assert main(["closure", "--n", "5"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 5 and blob["dim"] == 20
    assert [int(s, 16) for s in blob["masks"]] == list(basis.masks)


def test_general_closure_agrees_with_blade_closure():
    for n in range(3, 9):
        fast = spin_closure(n)
        gens = [Multivector({m: 1}, n) for m in spin_generators(n).masks]
        general = general_closure(n, gens)
        assert general.rank == fast.dim, n
        for m in fast.masks:
            assert general.contains({m: 1}), (n, hex(m))


def test_general_closure_handles_non_blade_generators():
    # v1v2 + v1v2v3 and v2v3: brackets recover v1v3 and v1v2, and the
    # top blade falls out as the difference, so the span is all four
    gens = [Multivector({0b011: 1, 0b111: 1}, 3), Multivector({0b110: 1}, 3)]
    general = general_closure(3, gens)
    assert general.rank == 4
    for m in (0b011, 0b101, 0b110, 0b111):
        assert general.contains({m: 1})


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
    broken = ClosureBasis(n=3, bits=bits_of([0b011, 0b110]), provenance=(0b011, 0b110))
    assert blades_anticommute(0b011, 0b110)
    assert not is_closed(broken)
