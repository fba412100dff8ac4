import random
from fractions import Fraction

import pytest

from stratacheck.errors import ToolkitError
from stratacheck.lattice import (
    grlex_key,
    integer_kernel,
    matrix_rank,
    sort_monomials,
)


def rational_rank(matrix):
    """Independent oracle: Gaussian elimination over exact rationals."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_grlex_order_is_degree_then_lex():
    ms = [(0, 2), (1, 0), (2, 0), (1, 1), (0, 0), (0, 1)]
    assert sort_monomials(ms) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_kernel_of_identity_is_empty():
    assert integer_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_kernel_of_balanced_weight_row():
    m = [[1, 1, 1, 1, -1, -1, -1, -1]]
    basis = integer_kernel(m)
    assert len(basis) == 7
    for v in basis:
        assert sum(w * x for w, x in zip(m[0], v)) == 0
    assert matrix_rank(basis) == 7


def test_kernel_of_double_weight_matrix():
    m = [
        (1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0),
        (0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1, -1),
    ]
    assert matrix_rank(m) == 2
    basis = integer_kernel(m)
    assert len(basis) == 10
    for v in basis:
        for row in m:
            assert sum(w * x for w, x in zip(row, v)) == 0


def test_kernel_of_empty_matrix_needs_cols():
    with pytest.raises(ToolkitError):
        integer_kernel([])
    assert integer_kernel([], cols=3) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_deterministic_and_canonical():
    # same kernel lattice presented three ways gives the same canonical basis
    a = integer_kernel([[1, 2, 3]])
    b = integer_kernel([[2, 4, 6]])
    c = integer_kernel([[1, 2, 3], [2, 4, 6]])
    assert a == b == c
    assert len(a) == 2
    for v in a:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_kernel_rank_matches_rational_row_reduction():
    rng = random.Random(991)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        basis = integer_kernel(m)
        rank = rational_rank(m)
        assert matrix_rank(m) == rank
        assert len(basis) == cols - rank
        for v in basis:
            for row in m:
                assert sum(w * x for w, x in zip(row, v)) == 0
        if basis:
            assert matrix_rank(basis) == len(basis)


def test_nonrectangular_matrix_rejected():
    with pytest.raises(ToolkitError):
        matrix_rank([[1, 2], [3]])


def test_grlex_key_total_degree_first():
    assert grlex_key((0, 3)) < grlex_key((4, 0))
    assert grlex_key((2, 0)) < grlex_key((1, 1))
