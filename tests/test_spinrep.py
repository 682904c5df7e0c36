from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enspin import spinrep
from enspin.multivector import Multivector, bracket, mv_product
from enspin.spinrep import (
    en_adjacency,
    spin_generators,
    verify_relations,
)


def edge_list(diagram) -> list[tuple[int, int]]:
    """The edges of a diagram as sorted pairs, in ascending order."""
    return sorted(tuple(sorted(e)) for e in diagram.edges)


def multivectors(gens) -> list[Multivector]:
    """The generator blades as multivectors of the ambient dimension."""
    return [Multivector({m: 1}, gens.n) for m in gens.masks]


def shared_index_adjacency_ok(n: int) -> bool:
    """Adjacency coincides with sharing exactly one Clifford index."""
    gens = spin_generators(n)
    diagram = en_adjacency(n)
    masks = gens.masks
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            shared = (masks[i - 1] & masks[j - 1]).bit_count()
            if diagram.adjacent(i, j) != (shared == 1):
                return False
    return True


def test_adjacency_small_cases():
    assert edge_list(en_adjacency(1)) == []
    assert edge_list(en_adjacency(2)) == []
    assert edge_list(en_adjacency(3)) == [(1, 3)]
    assert edge_list(en_adjacency(4)) == [(1, 3), (2, 4), (3, 4)]
    assert edge_list(en_adjacency(5)) == [(1, 3), (2, 4), (3, 4), (4, 5)]


def test_adjacency_edge_count_and_branch():
    for n in range(4, 15):
        diagram = en_adjacency(n)
        assert len(edge_list(diagram)) == n - 1
        assert diagram.adjacent(2, 4) and not diagram.adjacent(2, 3)
        assert diagram.adjacent(1, 3) and not diagram.adjacent(1, 2)
        degrees = {i: 0 for i in range(1, n + 1)}
        for a, b in edge_list(diagram):
            degrees[a] += 1
            degrees[b] += 1
        branch = [i for i, d in degrees.items() if d == 3]
        assert branch == ([4] if n >= 5 else [])


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
    diagram = en_adjacency(n)
    squares = {i: mv_product(a, a) == Multivector.scalar(-1, n) for i, a in enumerate(mvs, 1)}
    pairs = {}
    for i, a in enumerate(mvs, 1):
        for j, b in enumerate(mvs, 1):
            if i != j:
                br = bracket(a, b)
                pairs[(i, j)] = (bracket(a, br) == b.scale(-4) if diagram.adjacent(i, j)
                                 else br.is_zero())
    ys = [m.scale(Fraction(1, 2)) for m in mvs]
    scaled = all(mv_product(y, y) == Multivector.scalar(Fraction(-1, 4), n) for y in ys) and all(
        bracket(ys[i - 1], bracket(ys[i - 1], ys[j - 1])) == -ys[j - 1]
        for (i, j) in pairs if diagram.adjacent(i, j))
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
