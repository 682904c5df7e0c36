from math import comb

import pytest
from hypothesis import given, strategies as st

from enspin.deltas import (
    delta_closed,
    delta_identities,
    delta_sum,
    drops_top_blade,
    lower_bound_dim,
)


def test_closed_forms_match_direct_sums_up_to_64():
    for n in range(1, 65):
        for k in range(4):
            assert delta_closed(k, n) == delta_sum(k, n), (k, n)


def test_spot_values():
    assert delta_sum(2, 4) == comb(4, 2) == 6
    assert delta_closed(0, 5) == 1 + comb(5, 4) == 6
    assert delta_closed(1, 7) == comb(7, 1) + comb(7, 5) == 28
    assert delta_closed(2, 8) == comb(8, 2) + comb(8, 6) == 56
    assert delta_closed(3, 8) == comb(8, 3) + comb(8, 7) == 64
    assert delta_closed(2, 11) == 528
    assert delta_closed(3, 11) == 496
    assert delta_closed(2, 12) == 1056
    assert delta_closed(3, 12) == 1024


def test_total_and_half_sum_identities():
    for n in range(1, 40):
        vals = [delta_closed(k, n) for k in range(4)]
        assert sum(vals) == 2 ** n
        assert vals[0] + vals[2] == 2 ** (n - 1)
        assert vals[1] + vals[3] == 2 ** (n - 1)
        assert all(delta_identities(n).values()), n


def test_step_recurrence():
    # adding two generators: d0(n+2) = d0(n) + d2(n) + 2 d3(n)
    for n in range(1, 40):
        lhs = delta_closed(0, n + 2)
        rhs = delta_closed(0, n) + delta_closed(2, n) + 2 * delta_closed(3, n)
        assert lhs == rhs, n


@given(st.integers(1, 200), st.integers(0, 3))
def test_closed_form_property(n, k):
    assert delta_closed(k, n) == delta_sum(k, n)


def test_residue_equalities_by_congruence_class():
    # complementation pairs the residues differently in each class
    for n in range(3, 30):
        d = [delta_closed(k, n) for k in range(4)]
        m = n % 4
        if m == 0:
            assert d[1] == d[3]
        elif m == 1:
            assert d[0] == d[1] and d[2] == d[3]
        elif m == 2:
            assert d[0] == d[2]
        else:
            assert d[0] == d[3] and d[1] == d[2]
    # and delta_identities names exactly those pairs, in this order
    pairs = (["d1_eq_d3"], ["d0_eq_d1", "d2_eq_d3"], ["d0_eq_d2"], ["d0_eq_d3", "d1_eq_d2"])
    for n in range(1, 65):
        assert list(delta_identities(n)) == ["total_is_2n", "half_sums_are_2n1", *pairs[n % 4]]


def test_lower_bound_dim_values():
    assert lower_bound_dim(3) == 4
    assert lower_bound_dim(4) == 10
    assert lower_bound_dim(5) == 20
    assert lower_bound_dim(6) == 36
    assert lower_bound_dim(7) == 63  # 28 + 36 - 1, the top blade drops out
    assert lower_bound_dim(8) == 120
    assert lower_bound_dim(11) == 1023
    assert lower_bound_dim(12) == 2080


def test_lower_bound_subtracts_one_only_past_three():
    for n in range(3, 40):
        raw = delta_closed(2, n) + delta_closed(3, n)
        expect = raw - 1 if (n % 4 == 3 and n > 3) else raw
        assert lower_bound_dim(n) == expect
        assert drops_top_blade(n) == (n % 4 == 3 and n > 3)


def test_domain_errors():
    with pytest.raises(ValueError):
        delta_closed(4, 5)
    with pytest.raises(ValueError):
        delta_closed(0, 0)
    with pytest.raises(ValueError):
        delta_sum(-1, 5)
    with pytest.raises(ValueError):
        lower_bound_dim(2)
