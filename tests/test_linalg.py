import itertools
import random
from fractions import Fraction

import pytest

from delannoy.linalg import determinant, matrix_rank


def gauss_rank(rows):
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_simple_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_against_gauss_oracle():
    rng = random.Random(13)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert matrix_rank(rows) == gauss_rank(rows)


def test_low_rank_products():
    rng = random.Random(17)
    for _ in range(50):
        n, k = rng.randint(2, 6), rng.randint(1, 2)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        prod = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(n)
        ]
        assert matrix_rank(prod) <= k


def leibniz_det(rows):
    """The permutation expansion, as an independent oracle."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_determinant_simple_cases():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[0, 1], [1, 0]]) == -1  # one row swap
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 0], [0, 0]]) == 0
    assert determinant([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2]])
    with pytest.raises(ValueError):
        determinant([[1], [2, 3]])


def test_determinant_against_leibniz_oracle():
    rng = random.Random(19)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.2:  # a repeated row
            rows[-1] = list(rows[0])
        want = leibniz_det(rows)
        singular += want == 0
        assert determinant(rows) == want
        assert (matrix_rank(rows) == n) == (want != 0)
    assert singular > 20
