"""Exact scalar/vector/matrix layer."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptgeom.linalg import (
    DimensionMismatchError,
    ExactArithmeticError,
    SingularMatrixError,
    as_fraction,
    integerize,
    invert_matrix,
    parse_rational,
    qvec,
    rank,
    solve_exact,
    transpose,
)

F = Fraction


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(" 7 ") == F(7)
    for bad in ("0.5", "1e3", "1/0", "a/b", "1/-2"):
        with pytest.raises(ExactArithmeticError):
            parse_rational(bad)


def test_floats_rejected_everywhere():
    with pytest.raises(ExactArithmeticError):
        as_fraction(0.5)
    with pytest.raises(ExactArithmeticError):
        qvec(1, 0.5)
    with pytest.raises(ExactArithmeticError):
        as_fraction(True)


def test_qvec_arithmetic():
    a, b = qvec(1, "1/2"), qvec("1/3", 2)
    assert a + b == qvec("4/3", "5/2")
    assert a - b == qvec("2/3", "-3/2")
    assert a * 2 == qvec(2, 1) == 2 * a
    assert (-a) == qvec(-1, "-1/2")
    assert a.dot(b) == F(1, 3) + 1
    with pytest.raises(DimensionMismatchError):
        a.dot(qvec(1, 2, 3))


def test_integerize():
    assert integerize(qvec("1/2", "1/3", 0)) == (3, 2, 0)
    assert integerize(qvec(2, 4)) == (1, 2)


def test_solve_exact_statuses():
    status, x = solve_exact([[1, 1], [1, -1]], [3, 1])
    assert status == "unique" and x == qvec(2, 1)
    # overdetermined but consistent
    status, x = solve_exact([[1, 0], [0, 1], [1, 1]], [F(1, 3), F(2, 3), 1])
    assert status == "unique" and x == qvec("1/3", "2/3")
    status, _ = solve_exact([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    assert status == "inconsistent"
    status, _ = solve_exact([[1, 1]], [1])
    assert status == "underdetermined"
    status, _ = solve_exact([[1, 1], [2, 2]], [1, 3])
    assert status == "inconsistent"


def test_matrix_ops():
    m = [[2, -1], [0, 1]]
    inv = invert_matrix(m)
    assert inv == (qvec("1/2", "1/2"), qvec(0, 1))
    assert transpose(inv) == (qvec("1/2", 0), qvec("1/2", 1))
    assert rank([[1, 2], [2, 4]]) == 1
    with pytest.raises(SingularMatrixError):
        invert_matrix([[1, 2], [2, 4]])


# -- integer rank against the Fraction route ---------------------------------------


def fraction_rank(rows):
    """Rank by Gauss elimination over Fractions: the oracle for ``rank``."""
    if not rows:
        return 0
    m = [[F(c) for c in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rk = 0
    for c in range(n_cols):
        piv = next((i for i in range(rk, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        p = m[rk][c]
        for i in range(rk + 1, n_rows):
            if m[i][c] != 0:
                f = m[i][c] / p
                for j in range(c, n_cols):
                    m[i][j] -= f * m[rk][j]
        rk += 1
        if rk == min(n_rows, n_cols):
            break
    return rk


small = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7]))


@st.composite
def rational_matrices(draw):
    """Rows drawn freely, then (often) more rows that are rational
    combinations of them, so rank-deficient matrices are common."""
    n_cols = draw(st.integers(1, 6))
    row = st.lists(small, min_size=n_cols, max_size=n_cols)
    basis = draw(st.lists(row, min_size=1, max_size=5))
    combos = draw(st.lists(st.lists(small, min_size=len(basis), max_size=len(basis)),
                           max_size=6))
    rows = basis + [[sum((w * b[j] for w, b in zip(ws, basis)), F(0)) for j in range(n_cols)]
                    for ws in combos]
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_integer_rank_matches_fraction_rank(rows):
    assert rank(rows) == fraction_rank(rows)
    assert rank([qvec(*r) for r in rows]) == fraction_rank(rows)


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[F(1, 2), 1], [3, F(1, 3)], [F(7, 2), F(4, 3)]]) == 2
    assert rank([["1/2", "1/3"], [3, 2]]) == 1


@st.composite
def square_matrices(draw):
    """Square matrices, often singular: some rows are rational combinations
    of the others."""
    n = draw(st.integers(1, 5))
    row = st.lists(small, min_size=n, max_size=n)
    k = draw(st.one_of(st.just(n), st.integers(1, n)))  # k = n: singular only by chance
    basis = draw(st.lists(row, min_size=k, max_size=k))
    combos = draw(st.lists(st.lists(small, min_size=k, max_size=k),
                           min_size=n - k, max_size=n - k))
    rows = basis + [[sum((w * b[j] for w, b in zip(ws, basis)), F(0)) for j in range(n)]
                    for ws in combos]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_invert_matrix_exact(rows):
    n = len(rows)
    if fraction_rank(rows) < n:
        with pytest.raises(SingularMatrixError):
            invert_matrix(rows)
        return
    inv = invert_matrix(rows)
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert [[sum(a * b for a, b in zip(r, col)) for col in zip(*inv)] for r in rows] == identity
