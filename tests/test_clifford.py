import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from enspin.clifford import (
    Blade,
    blade_product,
    blades_anticommute,
    reorder_swaps,
    squares_to_minus_one,
)
from enspin.multivector import Multivector, bracket, format_multivector, mv_product


def blade_product_oracle(a_mask, b_mask):
    """Multiply the generator words directly: bubble sort, then cancel."""
    word = [i for i in range(1, 65) if a_mask >> (i - 1) & 1]
    word += [i for i in range(1, 65) if b_mask >> (i - 1) & 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
                changed = True
    out = []
    k = 0
    while k < len(word):
        if k + 1 < len(word) and word[k] == word[k + 1]:
            k += 2  # v_i v_i = +1
        else:
            out.append(word[k])
            k += 1
    mask = 0
    for i in out:
        mask |= 1 << (i - 1)
    return mask, sign


def test_blade_product_matches_word_oracle_exhaustively():
    for a in range(64):
        for b in range(64):
            got = blade_product(Blade(a), Blade(b))
            mask, sign = blade_product_oracle(a, b)
            assert (got.mask, got.sign) == (mask, sign), (a, b)


def test_known_sign_conventions():
    v1, v2 = Blade(0b01), Blade(0b10)
    assert blade_product(v2, v1) == Blade(0b11, -1)
    assert blade_product(v1, v2) == Blade(0b11, 1)
    v12, v23 = Blade(0b011), Blade(0b110)
    assert blade_product(v12, v23) == Blade(0b101, 1)
    assert blade_product(Blade(0b11), Blade(0b11)) == Blade(0, -1)


def test_anticommute_predicate_agrees_with_products():
    for a in range(1, 1 << 7):
        for b in range(1, 1 << 7):
            ab = blade_product(Blade(a), Blade(b))
            ba = blade_product(Blade(b), Blade(a))
            anti = ab.sign == -ba.sign
            assert blades_anticommute(a, b) == anti, (a, b)


def test_square_rule_agrees_with_products():
    # the signed product is the independent oracle of the grade rule
    for m in range(1 << 12):
        assert squares_to_minus_one(m) == (blade_product(Blade(m), Blade(m)).sign == -1), m


def test_reorder_swaps_zero_for_disjoint_sorted():
    assert reorder_swaps(0b0011, 0b1100) == 0
    assert reorder_swaps(0b1100, 0b0011) == 4


@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1),
       st.integers(0, (1 << 10) - 1))
def test_blade_product_associative(a, b, c):
    lhs = blade_product(blade_product(Blade(a), Blade(b)), Blade(c))
    rhs = blade_product(Blade(a), blade_product(Blade(b), Blade(c)))
    assert lhs == rhs


def random_mv(rng, dim, terms=4):
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randrange(1 << dim)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Multivector(coeffs, dim)


def test_mv_product_associative_sampled():
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(1, 6)
        x, y, z = (random_mv(rng, dim) for _ in range(3))
        assert mv_product(mv_product(x, y), z) == mv_product(x, mv_product(y, z))


def test_bracket_jacobi_sampled():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(2, 5)
        x, y, z = (random_mv(rng, dim, terms=3) for _ in range(3))
        total = (bracket(bracket(x, y), z)
                 + bracket(bracket(y, z), x)
                 + bracket(bracket(z, x), y))
        assert total.is_zero()


def test_bracket_of_basis_blades_is_single_blade_with_coeff_two():
    for a in range(1, 1 << 5):
        for b in range(1, 1 << 5):
            br = bracket(Multivector({a: 1}, 5), Multivector({b: 1}, 5))
            if blades_anticommute(a, b):
                assert set(br.terms) == {a ^ b}
                assert abs(br.terms[a ^ b]) == 2
            else:
                assert br.is_zero()


def test_multivector_arithmetic_basics():
    x = Multivector({0b01: 1, 0b10: 2}, 2)
    y = Multivector({0b10: Fraction(-2)}, 2)
    assert (x + y).terms == {0b01: 1}
    assert (x - x).is_zero()
    assert (-x).terms == {0b01: -1, 0b10: -2}
    assert x.scale(0).is_zero()
    assert (3 * x).terms == {0b01: 3, 0b10: 6}
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == x.scale(Fraction(1, 2))
    # foreign operands raise TypeError from either side, never a silent result
    for foreign in (0.5, "x", 1, None):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(x, foreign)
            with pytest.raises(TypeError):
                op(foreign, x)
    for foreign in (0.5, "x", None):
        with pytest.raises(TypeError):
            _ = x * foreign
        with pytest.raises(TypeError):
            _ = foreign * x


def test_product_and_bracket_raise_type_error_on_foreign_operands():
    # as the operators do, and not an AttributeError from the dimension check
    x = Multivector({0b01: 1}, 2)
    for foreign in (1, 0.5, "x", None):
        for fn in (mv_product, bracket):
            with pytest.raises(TypeError):
                fn(x, foreign)
            with pytest.raises(TypeError):
                fn(foreign, x)


def test_dimension_mismatch_raises():
    x = Multivector({1: 1}, 2)
    y = Multivector({1: 1}, 3)
    with pytest.raises(ValueError):
        _ = x + y
    with pytest.raises(ValueError):
        mv_product(x, y)


def test_format_examples():
    assert format_multivector(Multivector({0b11: 1, 0b110: -2}, 3)) == "v1v2 - 2v2v3"
    assert format_multivector(Multivector({}, 3)) == "0"
    assert format_multivector(Multivector({0: Fraction(1, 2)}, 2)) == "1/2"
    assert str(Blade(0b111, -1)) == "-v1v2v3"


@pytest.mark.parametrize("args, message", [
    ((-1,), "blade mask must be non-negative"),
    ((3, 0), "blade sign must be +1 or -1, got 0"),
], ids=["mask", "sign"])
def test_blade_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as e:
        Blade(*args)
    assert str(e.value) == message


def test_blade_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="blade mask must be non-negative"):
        Blade(1)._replace(mask=-1)
    with pytest.raises(ValueError, match="blade sign must be"):
        Blade(1)._replace(sign=0)
    assert Blade(3)._replace(sign=-1) == Blade(3, -1)
