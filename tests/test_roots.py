import pytest

from enspin.roots import cartan_matrix, positive_roots, theorem_b_check

EXPECTED_COUNTS = {3: 4, 4: 10, 5: 20, 6: 36, 7: 63, 8: 120}


def fixpoint_roots(n):
    """Reference enumeration: rescan every known root until nothing grows."""
    cartan = cartan_matrix(n)
    have = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}

    def pairing(beta, i):
        return sum(cartan[i][j] * beta[j] for j in range(n))

    grew = True
    while grew:
        grew = False
        for beta in list(have):
            for i in range(n):
                p = 0
                down = beta
                while True:
                    down = tuple(x - (1 if j == i else 0) for j, x in enumerate(down))
                    if min(down) < 0 or down not in have:
                        break
                    p += 1
                if p - pairing(beta, i) > 0:
                    up = tuple(x + (1 if j == i else 0) for j, x in enumerate(beta))
                    if up not in have:
                        have.add(up)
                        grew = True
    return tuple(sorted(have, key=lambda r: (sum(r), r)))


def test_cartan_matrices_are_symmetric_simply_laced():
    for n in range(3, 9):
        c = cartan_matrix(n)
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                assert c[i][j] == c[j][i]
                if i != j:
                    assert c[i][j] in (0, -1)


def test_cartan_three_is_a1_times_a2():
    # node 2 is isolated below rank 4; nodes 1-3 form the A_2 piece
    assert cartan_matrix(3) == ((2, 0, -1), (0, 2, 0), (-1, 0, 2))


def test_positive_root_counts():
    for n, want in EXPECTED_COUNTS.items():
        assert positive_roots(n).count == want, n


def test_simple_roots_present_and_coordinates_nonnegative():
    for n in range(3, 9):
        rs = positive_roots(n)
        roots = set(rs.roots)
        for i in range(n):
            assert tuple(1 if j == i else 0 for j in range(n)) in roots
        for beta in roots:
            assert all(x >= 0 for x in beta)


def test_every_root_has_norm_two():
    for n in range(3, 9):
        rs = positive_roots(n)
        for beta in rs.roots:
            assert rs.norm(beta) == 2, (n, beta)


def test_roots_closed_under_string_rule():
    # beta + alpha_i with positive string balance must already be listed
    for n in range(3, 9):
        rs = positive_roots(n)
        have = set(rs.roots)
        for beta in rs.roots:
            for i in range(n):
                p = 0
                down = beta
                while True:
                    down = tuple(x - (1 if j == i else 0) for j, x in enumerate(down))
                    if min(down) < 0 or down not in have:
                        break
                    p += 1
                if p - rs.pairing(beta, i) > 0:
                    up = tuple(x + (1 if j == i else 0) for j, x in enumerate(beta))
                    assert up in have, (n, beta, i)


def test_height_layers_match_fixpoint_oracle():
    for n in range(3, 9):
        assert positive_roots(n).roots == fixpoint_roots(n), n


def test_highest_root_unique_for_connected_ranks():
    for n in range(4, 9):
        tops = positive_roots(n).maximal_roots()
        assert len(tops) == 1, n


def test_rank_three_has_two_component_highest_roots():
    tops = positive_roots(3).maximal_roots()
    assert len(tops) == 2
    # one per component: the isolated node 2 and the A_2 chain on 1, 3
    assert tuple(sorted(tops)) == ((0, 1, 0), (1, 0, 1))


def test_known_highest_root_heights():
    # sum of coordinates of the highest root, plus one, is the Coxeter number
    rs = positive_roots(8)
    top = rs.maximal_roots()[0]
    assert sum(top) == 29  # E_8 Coxeter number 30


def test_count_matches_closure_dimension():
    for n in range(3, 9):
        assert theorem_b_check(n), n


def test_rank_limits():
    with pytest.raises(ValueError):
        positive_roots(2)
    with pytest.raises(ValueError, match="infinite type"):
        positive_roots(9)
    with pytest.raises(ValueError, match="infinite type"):
        positive_roots(12)


def test_serialization_lists_roots_by_height():
    blob = positive_roots(4).to_json()
    assert blob["count"] == 10
    heights = [sum(r) for r in blob["roots"]]
    assert heights == sorted(heights)
