import random
from fractions import Fraction

import numpy as np
import pytest

from enspin.linalg import (
    DEFAULT_PRIMES,
    EchelonBasis,
    RationalMatrix,
    _rank_mod_p_blocked,
    _rank_mod_p_plain,
    is_negative_definite,
    is_prime,
    kernel_dimension,
    kernel_dimension_mod_p,
)


def test_default_primes_are_prime_and_distinct():
    assert len(set(DEFAULT_PRIMES)) == len(DEFAULT_PRIMES) == 3
    for p in DEFAULT_PRIMES:
        assert is_prime(p)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for k in range(-3, 43):
        assert is_prime(k) == (k in primes)
    assert is_prime(2_097_143)
    assert not is_prime(2_097_141)
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 998_244_353)


def test_echelon_sift_and_contains():
    eb = EchelonBasis(4)
    assert eb.sift({0: 1, 1: 2})
    assert not eb.sift({0: 2, 1: 4})
    assert eb.sift({1: 1})
    assert eb.rank == 2
    assert eb.contains({0: 5, 1: -3})
    assert not eb.contains({2: 1})
    assert eb.sift([0, 0, 1, 7])
    assert eb.rank == 3
    assert not eb.sift({0: Fraction(1, 3), 1: 5, 2: -2, 3: Fraction(-28, 2)})
    assert eb.rank == 3


def test_echelon_rejects_out_of_range_coordinate():
    eb = EchelonBasis(2)
    with pytest.raises(ValueError):
        eb.sift({2: 1})


def test_echelon_reduce_is_idempotent():
    rng = random.Random(5)
    eb = EchelonBasis(8)
    for _ in range(6):
        eb.sift({rng.randrange(8): rng.randint(1, 4) for _ in range(3)})
    for _ in range(50):
        v = {rng.randrange(8): Fraction(rng.randint(-5, 5)) for _ in range(4)}
        red = eb.reduce(v)
        assert eb.reduce(red) == red


def test_kernel_dimension_known_cases():
    assert kernel_dimension([[1, 2], [2, 4]]) == 1
    assert kernel_dimension([[1, 0], [0, 1]]) == 0
    assert kernel_dimension([[0, 0], [0, 0]]) == 2
    assert kernel_dimension([[1, 2, 3]]) == 2
    assert kernel_dimension([[Fraction(1, 2)], [Fraction(1, 3)]]) == 0
    assert kernel_dimension(RationalMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 1
    assert kernel_dimension([]) == 0
    assert kernel_dimension([[]]) == 0


def test_mod_p_kernel_never_below_rational_kernel():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        rank = rng.randint(0, min(rows, cols))
        m = np.zeros((rows, cols), dtype=np.int64)
        for _ in range(rank):
            u = np.array([rng.randint(-4, 4) for _ in range(rows)])
            v = np.array([rng.randint(-4, 4) for _ in range(cols)])
            m += np.outer(u, v)
        exact = kernel_dimension([[int(x) for x in row] for row in m])
        for p in DEFAULT_PRIMES:
            assert kernel_dimension_mod_p(m, p) >= exact


def test_mod_p_kernel_detects_characteristic_collapse():
    # [[2]] is invertible over Q but zero mod 2
    assert kernel_dimension([[2]]) == 0
    assert kernel_dimension_mod_p([[2]], 2) == 1
    assert kernel_dimension_mod_p([[2]], 3) == 0


def test_mod_p_rejects_composite_modulus():
    with pytest.raises(ValueError):
        kernel_dimension_mod_p([[1]], 10)


def test_blocked_and_plain_elimination_agree_across_panels():
    rng = random.Random(31)
    p = DEFAULT_PRIMES[0]
    for trial in range(6):
        d = rng.randint(140, 400)
        m = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)],
                     dtype=np.int64)
        for _ in range(rng.randint(0, 4)):
            i, j, k = rng.randrange(d), rng.randrange(d), rng.randint(1, 9)
            m[i] = (m[j] * k) % p
        assert _rank_mod_p_blocked(m.copy(), p) == _rank_mod_p_plain(m.copy(), p)


def test_blocked_path_agrees_with_big_prime_path_on_integer_input():
    rng = random.Random(37)
    for _ in range(40):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        m = np.array([[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64)
        small = kernel_dimension_mod_p(m, DEFAULT_PRIMES[0])
        big = kernel_dimension_mod_p(m, 1_000_000_007)
        exact = kernel_dimension([[int(x) for x in row] for row in m])
        assert small >= exact and big >= exact
        # with entries this small both primes see the true rank
        assert small == exact == big


def test_negative_definite_examples():
    assert is_negative_definite([[-1, 0], [0, -2]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[1, 0], [0, -1]])
    assert not is_negative_definite([[-1, 0], [0, 0]])
    assert not is_negative_definite([[0, 0], [0, 0]])
    # semidefinite but singular: -x^2 - y^2 + 2xy = -(x - y)^2
    assert not is_negative_definite([[-1, 1], [1, -1]])
    assert is_negative_definite([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
    assert not is_negative_definite([[-1, 0, 0], [0, -1, 0], [0, 0, 0]])


def test_negative_definite_requires_symmetry():
    with pytest.raises(ValueError):
        is_negative_definite([[-1, 2], [0, -1]])


def test_negative_definite_matches_eigen_sign_on_random_symmetric():
    rng = random.Random(41)
    for _ in range(100):
        d = rng.randint(1, 6)
        b = np.array([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        gram = b @ b.T  # positive semidefinite
        m = [[-int(gram[i][j]) - (4 * d if i == j else 0) for j in range(d)] for i in range(d)]
        evs = np.linalg.eigvalsh(np.array(m, dtype=float))
        assert is_negative_definite(m) == bool(np.all(evs < 0))


def test_rational_matrix_accessors():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.rows == m.cols == 2
    assert not m.is_symmetric()
    assert RationalMatrix.identity(3).is_symmetric()
