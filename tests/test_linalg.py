"""Exact scalar/vector/matrix layer."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptgeom.linalg import (
    DimensionMismatchError,
    ExactArithmeticError,
    QVec,
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


def _parse_rational_by_fraction(text):
    """The earlier parse: the literal checked by one regex, then parsed
    again by ``Fraction``'s own."""
    s = text.strip()
    if not re.match(r"^[+-]?\d+(/[1-9]\d*)?$", s):
        raise ExactArithmeticError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


def _parse_outcome(parse, text):
    try:
        value = parse(text)
    except ExactArithmeticError as err:
        return "error", str(err)
    return type(value), value


ACCEPTED = ["3", "-2", "+5", "3/4", "-3/4", "+3/4", "007", "-007/10", "0", "-0", "+0/7",
            " 7 ", "\t-1/2\n", "\u00a0 12/35 \u2003", "\u0663/4", "-\u0661\u0662/5",
            "6/4", "12345678901234567890123/98765432109876543210"]
REJECTED = ["0.5", "1/0", "3/01", "1e3", "--1", "", " ", "+-1", "1/-2", "1 /2", "1/ 2",
            "a/b", "1/2/3", "3/\u0664", "\u00b2", "1_000", "0x10", "inf", "nan", "1/2 3"]


@pytest.mark.parametrize("text", ACCEPTED + REJECTED)
def test_parse_rational_matches_the_earlier_parse(text):
    expected = _parse_outcome(_parse_rational_by_fraction, text)
    assert _parse_outcome(parse_rational, text) == expected
    assert (expected[0] == "error") == (text in REJECTED)


@settings(max_examples=300)
@given(st.text(alphabet=st.sampled_from("0123456789+-/ \t\n\u00a0\u0663e._"), max_size=12))
def test_parse_rational_matches_the_earlier_parse_on_drawn_text(text):
    assert (_parse_outcome(parse_rational, text)
            == _parse_outcome(_parse_rational_by_fraction, text))


def test_qvec_operators_reject_floats():
    a = qvec(1, 2)
    for op in (lambda: a + (0.5, 1), lambda: (0.5, 1) + a, lambda: a - [0.5, 1],
               lambda: a * 0.5, lambda: 0.5 * a):
        with pytest.raises(ExactArithmeticError):
            op()
    # exact operands of other types are coerced, and results hold Fractions
    for v in (a + (1, "1/2"), (1, "1/2") + a, a - [1, 2], -a, a * "1/3", 2 * a):
        assert type(v) is QVec and all(type(c) is Fraction for c in v)
    assert a + (1, "1/2") == qvec(2, "5/2") and a - [1, 2] == qvec(0, 0)


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


@settings(max_examples=150)
@given(rational_matrices())
def test_integer_rank_matches_fraction_rank(rows):
    assert rank(rows) == fraction_rank(rows)
    assert rank([qvec(*r) for r in rows]) == fraction_rank(rows)


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[F(1, 2), 1], [3, F(1, 3)], [F(7, 2), F(4, 3)]]) == 2
    assert rank([["1/2", "1/3"], [3, 2]]) == 1


# -- solve_exact against a Fraction Gauss-Jordan oracle ------------------------


def fraction_solve(rows, rhs):
    """Gauss-Jordan elimination of [A | b] over Fractions: the oracle for
    ``solve_exact``, with the same statuses and the same precedence."""
    m = [[F(c) for c in row] + [F(b)] for row, b in zip(rows, rhs)]
    n = len(m[0]) - 1
    rk = 0
    for c in range(n):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        m[rk] = [v / m[rk][c] for v in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    if any(row[n] != 0 for row in m[rk:]):
        return "inconsistent", None
    if rk < n:
        return "underdetermined", None
    return "unique", qvec(*(row[n] for row in m[:n]))


big = st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))


@st.composite
def linear_systems(draw):
    """A x = b for a drawn x with large denominators; often one value of b
    is then moved, which makes the system inconsistent unless that row is
    independent of the others."""
    rows = draw(rational_matrices())
    x = draw(st.lists(big, min_size=len(rows[0]), max_size=len(rows[0])))
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, len(rhs) - 1))] += draw(big.filter(bool))
    return rows, rhs


@settings(max_examples=300)
@given(linear_systems())
def test_solve_exact_matches_gauss_jordan(system):
    rows, rhs = system
    assert solve_exact(rows, rhs) == fraction_solve(rows, rhs)


def test_only_a_dependent_row_is_inconsistent():
    # the moved value sits on the last of many dependent rows, never a pivot
    # row; the check of every row must see it, with and without full rank
    for basis in ([[1, 0], [0, 1]], [[1, 1]]):
        rows = basis + [[k, k] for k in range(2, 12)]
        rhs = [sum(row) * F(1, 3) for row in rows]
        assert solve_exact(rows, rhs)[0] == ("unique" if len(basis) == 2 else "underdetermined")
        rhs[-1] += F(1, 10 ** 30)
        assert solve_exact(rows, rhs) == ("inconsistent", None)


def test_solve_exact_rejects_ragged_rows():
    with pytest.raises(DimensionMismatchError, match="length 2 and 3"):
        solve_exact([[1, 0], [1, 0, 0]], [0, 0])


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


@settings(max_examples=200)
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
