from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enspin import spinrep
from enspin.bott import closure_type
from enspin.clifford import squares_to_minus_one
from enspin.deltas import drops_top_blade
from enspin.multivector import Multivector, bracket, mv_product
from enspin.spinrep import (
    cartan_matrix,
    spin_generators,
    verify_relations,
)


def adjacent(cartan, i: int, j: int) -> bool:
    """Nodes i and j (1-based) share an edge of the diagram."""
    return cartan[i - 1][j - 1] == -1


def edge_list(cartan) -> list[tuple[int, int]]:
    """The edges of the diagram of a Cartan matrix as pairs i < j, in ascending order."""
    n = len(cartan)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if adjacent(cartan, i, j)]


def multivectors(gens) -> list[Multivector]:
    """The generator blades as multivectors of the ambient dimension."""
    return [Multivector({m: 1}, gens.n) for m in gens.masks]


def shared_index_adjacency_ok(n: int) -> bool:
    """Adjacency coincides with sharing exactly one Clifford index."""
    gens = spin_generators(n)
    cartan = cartan_matrix(n)
    masks = gens.masks
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            shared = (masks[i - 1] & masks[j - 1]).bit_count()
            if adjacent(cartan, i, j) != (shared == 1):
                return False
    return True


def test_adjacency_small_cases():
    assert edge_list(cartan_matrix(1)) == []
    assert edge_list(cartan_matrix(2)) == []
    assert edge_list(cartan_matrix(3)) == [(1, 3)]
    assert edge_list(cartan_matrix(4)) == [(1, 3), (2, 4), (3, 4)]
    assert edge_list(cartan_matrix(5)) == [(1, 3), (2, 4), (3, 4), (4, 5)]


def test_adjacency_edge_count_and_branch():
    for n in range(4, 15):
        cartan = cartan_matrix(n)
        assert len(edge_list(cartan)) == n - 1
        assert adjacent(cartan, 2, 4) and not adjacent(cartan, 2, 3)
        assert adjacent(cartan, 1, 3) and not adjacent(cartan, 1, 2)
        degrees = {i: 0 for i in range(1, n + 1)}
        for a, b in edge_list(cartan):
            degrees[a] += 1
            degrees[b] += 1
        branch = [i for i, d in degrees.items() if d == 3]
        assert branch == ([4] if n >= 5 else [])


def bareiss_det(matrix) -> int:
    """The determinant of an integer matrix, exactly, by fraction-free elimination (Bareiss)."""
    m = [list(row) for row in matrix]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def kernel_mod_2(matrix) -> list[int]:
    """A basis of the kernel of an integer matrix over F_2, bit i - 1 of a vector for node i.

    Start from the unit vectors; for each row, keep the vectors it is
    even on and, when some are odd, the XOR of the first odd one with
    each other odd one.
    """
    basis = [1 << i for i in range(len(matrix))]
    for row in matrix:
        h = sum(1 << j for j, c in enumerate(row) if c % 2)
        even = [x for x in basis if not (x & h).bit_count() & 1]
        odd = [x for x in basis if (x & h).bit_count() & 1]
        basis = even + [x ^ odd[0] for x in odd[1:]]
    return basis


def generator_image(x: int, masks) -> int:
    """phi(x): the mask of the product of the generators over the set bits of x."""
    image = 0
    for i, g in enumerate(masks):
        if x >> i & 1:
            image ^= g
    return image


def omega_facts(n: int) -> tuple[bool, bool, bool]:
    """Whether omega = v1...vn is central, squares to -1 and is a generator, from C mod 2.

    phi is an isometry from C mod 2 to the commutation form q, so the
    generators' common commutant is phi(ker C mod 2).
    """
    full = (1 << n) - 1
    masks = spin_generators(n).masks
    central = any(generator_image(rho, masks) == full for rho in kernel_mod_2(cartan_matrix(n)))
    return central, squares_to_minus_one(full), full in masks


def test_cartan_determinant_is_nine_minus_n():
    # the chain extension: det C(E_n) = 2 det C(E_{n-1}) - det C(E_{n-2}), from 6 and 5
    for n in range(3, 65):
        assert bareiss_det(cartan_matrix(n)) == 9 - n, n


def test_cartan_kernel_mod_two_is_the_top_blade_for_odd_n():
    # 9 - n is odd for even n, so C mod 2 is singular exactly for odd n; then its
    # kernel is one vector rho_n, since deleting node n leaves det 10 - n, odd, and
    # the generators over rho_n's nodes multiply to the top blade
    for n in range(3, 129):
        kernel = kernel_mod_2(cartan_matrix(n))
        assert len(kernel) == n % 2, n
        assert all(generator_image(rho, spin_generators(n).masks) == (1 << n) - 1
                   for rho in kernel), n


def test_residue_rules_follow_from_the_lattice():
    # a step x -> x ^ g of the closure walk needs x to anticommute with g, and then
    # x ^ g does too, so no step reaches a central omega: it is in the closure only
    # when it is a generator.  classify expects the split where the type has two summands
    centers = []
    for n in range(3, 129):
        central, minus, generator = omega_facts(n)
        assert drops_top_blade(n) == (central and minus and not generator), n
        assert (closure_type(n).center_dim() > 0) == (central and minus and generator), n
        assert (closure_type(n).summands == 2) == (central and not minus), n
        if central and minus and generator:
            centers.append(n)
    assert centers == [3]


def test_generator_blades():
    gens = spin_generators(5)
    assert gens.masks[0] == 0b00011
    assert gens.masks[1] == 0b00111
    assert gens.masks[2] == 0b00110
    assert gens.masks[3] == 0b01100
    assert gens.masks[4] == 0b11000
    assert len(gens.masks) == 5
    assert spinrep.SpinGenerators._fields == ("n", "masks")


def test_generators_need_three_dimensions():
    with pytest.raises(ValueError):
        spin_generators(2)


def test_adjacency_equals_sharing_exactly_one_index():
    for n in range(3, 15):
        assert shared_index_adjacency_ok(n), n


def test_relations_hold_for_all_n_up_to_fourteen():
    for n in range(3, 15):
        report = verify_relations(n)
        assert report.all_pass, (n, report.failures)
        assert all(report.squares.values())
        assert all(report.pairs.values())
        assert report.scaled_ok
        assert len(report.pairs) == n * (n - 1)


def test_relation_report_serialization():
    blob = verify_relations(4).to_json()
    assert blob["all_pass"] and blob["squares_ok"] and blob["pairs_ok"] and blob["scaled_ok"]
    assert blob["failures"] == []


def relations_reference(n: int) -> tuple[dict, dict, bool]:
    """The presentation checked with multivector products and brackets, as exact rationals."""
    mvs = multivectors(spinrep.spin_generators(n))
    cartan = cartan_matrix(n)
    squares = {i: mv_product(a, a) == Multivector.scalar(-1, n) for i, a in enumerate(mvs, 1)}
    pairs = {}
    for i, a in enumerate(mvs, 1):
        for j, b in enumerate(mvs, 1):
            if i != j:
                br = bracket(a, b)
                pairs[(i, j)] = (bracket(a, br) == b.scale(-4) if adjacent(cartan, i, j)
                                 else br.is_zero())
    ys = [m.scale(Fraction(1, 2)) for m in mvs]
    scaled = all(mv_product(y, y) == Multivector.scalar(Fraction(-1, 4), n) for y in ys) and all(
        bracket(ys[i - 1], bracket(ys[i - 1], ys[j - 1])) == -ys[j - 1]
        for (i, j) in pairs if adjacent(cartan, i, j))
    return squares, pairs, scaled


def test_nonadjacent_generators_commute_spot_check():
    # A_1 = v1v2 and A_2 = v1v2v3 share two indices and must commute
    gens = spin_generators(6)
    mvs = multivectors(gens)
    assert bracket(mvs[0], mvs[1]).is_zero()
    # A_4 = v3v4 and A_6 = v5v6 are disjoint and must commute
    assert bracket(mvs[3], mvs[5]).is_zero()
    # A_4 and A_5 = v4v5 share one index and must not
    assert not bracket(mvs[3], mvs[4]).is_zero()
    # every square and ordered pair read off the masks agrees with the multivector brackets
    for n in range(3, 11):
        report = verify_relations(n)
        assert (report.squares, report.pairs, report.scaled_ok) == relations_reference(n), n


@given(n=st.integers(3, 6), data=st.data())
def test_relations_read_off_masks_match_brackets_on_any_blades(n, data):
    # each generator kept or swapped for an arbitrary blade, so one relation can fail alone;
    # a blade's sign changes neither its square nor whether it commutes, so masks suffice
    true_generators = spin_generators
    any_mask = st.integers(0, (1 << n) - 1)
    masks = tuple(data.draw(st.one_of(st.just(g), any_mask)) for g in true_generators(n).masks)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spinrep, "spin_generators",
                  lambda k: true_generators(k)._replace(masks=masks))
        report = verify_relations(n)
        assert (report.squares, report.pairs, report.scaled_ok) == relations_reference(n)
