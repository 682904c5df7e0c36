import pytest

from enspin.bott import (
    CompactTypeDescriptor,
    bott_algebra,
    dims_agree,
    expected_dim,
    expected_rank,
    max_compact,
)
from enspin.deltas import lower_bound_dim


def test_real_dimension_is_two_to_the_n():
    for n in range(2, 65):
        assert bott_algebra(n).real_dimension() == 2 ** n, n


def test_period_eight_scales_tensor_factor_by_sixteen():
    for n in range(2, 40):
        small = bott_algebra(n)
        big = bott_algebra(n + 8)
        assert small.summands == big.summands
        assert [r for r, _ in small.summands] == [r for r, _ in big.summands]
        assert big.tensor_size == 16 * small.tensor_size


def test_algebra_descriptors_spot_values():
    assert str(bott_algebra(2)) == "M(2,R)"
    assert str(bott_algebra(3)) == "M(2,C)"
    assert str(bott_algebra(4)) == "M(2,H)"
    assert str(bott_algebra(5)) == "M(2,H) ⊕ M(2,H)"
    assert str(bott_algebra(8)) == "R ⊗ M(16,R)"
    assert str(bott_algebra(9)) == "(R ⊕ R) ⊗ M(16,R)"
    assert str(bott_algebra(13)) == "(M(2,H) ⊕ M(2,H)) ⊗ M(16,R)"
    assert str(bott_algebra(14)) == "M(4,H) ⊗ M(16,R)"
    assert str(bott_algebra(15)) == "M(8,C) ⊗ M(16,R)"
    assert str(bott_algebra(16)) == "R ⊗ M(256,R)"
    assert str(bott_algebra(17)) == "(R ⊕ R) ⊗ M(256,R)"


def test_max_compact_spot_values():
    assert str(max_compact(2)) == "so(2)"
    assert str(max_compact(3)) == "su(2)"
    assert str(max_compact(4)) == "sp(2)"
    assert str(max_compact(5)) == "sp(2) ⊕ sp(2)"
    assert str(max_compact(6)) == "sp(4)"
    assert str(max_compact(7)) == "su(8)"
    assert str(max_compact(8)) == "so(16)"
    assert str(max_compact(9)) == "so(16) ⊕ so(16)"
    assert str(max_compact(10)) == "so(32)"
    assert str(max_compact(11)) == "su(32)"
    assert str(max_compact(12)) == "sp(32)"
    assert str(max_compact(14)) == "sp(64)"
    assert str(max_compact(15)) == "su(128)"
    assert str(max_compact(16)) == "so(256)"
    assert str(max_compact(17)) == "so(256) ⊕ so(256)"


def test_type_dimension_formulas():
    so16 = CompactTypeDescriptor(family="so", param=16, summands=1)
    assert so16.dimension() == 120 and so16.rank() == 8
    su8 = CompactTypeDescriptor(family="su", param=8, summands=1)
    assert su8.dimension() == 63 and su8.rank() == 7
    sp2x2 = CompactTypeDescriptor(family="sp", param=2, summands=2)
    assert sp2x2.dimension() == 20 and sp2x2.rank() == 4
    u2 = CompactTypeDescriptor(family="u", param=2, summands=1)
    assert u2.dimension() == 4 and u2.rank() == 2


def test_expected_dim_equals_binomial_lower_bound():
    for n in range(4, 65):
        assert expected_dim(n) == lower_bound_dim(n) == max_compact(n).dimension(), n
        assert dims_agree(n)


def test_expected_rank_values():
    assert [expected_rank(n) for n in range(4, 13)] == [2, 4, 4, 7, 8, 16, 16, 31, 32]


def test_compact_type_json_round_trip_fields():
    d = max_compact(9).to_json()
    assert d["family"] == "so" and d["param"] == 16 and d["summands"] == 2
    a = bott_algebra(9).to_json()
    assert a["tensor_size"] == 16
    assert a["real_dimension"] == 512


def test_domain_errors():
    with pytest.raises(ValueError):
        bott_algebra(1)
    with pytest.raises(ValueError):
        max_compact(0)
    with pytest.raises(ValueError):
        expected_dim(3)
    with pytest.raises(ValueError):
        expected_rank(3)
