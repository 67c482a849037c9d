"""Exact rational vectors, matrices and linear solving.

Everything in this package runs on ``fractions.Fraction``; floats are
rejected at the boundary so that set equalities downstream are decidable.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class ExactArithmeticError(TypeError):
    """A float (or other inexact number) leaked into the exact backend."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ExactArithmeticError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ExactArithmeticError(
        f"exact backend accepts int, Fraction or 'p/q' strings, not {type(value).__name__}"
    )


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form '3', '-2' or 'p/q'."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ExactArithmeticError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


class QVec(tuple):
    """Immutable exact rational vector.

    Subclasses tuple, so instances are hashable and ordered; ``+``, ``-``
    and scalar ``*`` act componentwise rather than as sequence operators.
    """

    def __new__(cls, coords: Iterable) -> "QVec":
        return super().__new__(cls, (as_fraction(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self)

    def dot(self, other: Sequence[Fraction]) -> Fraction:
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"dot product of length-{len(self)} and length-{len(other)} vectors"
            )
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def __add__(self, other):
        if len(self) != len(other):
            raise DimensionMismatchError("vector addition dimension mismatch")
        return QVec(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        if len(self) != len(other):
            raise DimensionMismatchError("vector subtraction dimension mismatch")
        return QVec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return QVec(-a for a in self)

    def __mul__(self, scalar):
        return QVec(a * as_fraction(scalar) for a in self)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    def __repr__(self) -> str:
        return "QVec(%s)" % ", ".join(str(c) for c in self)


class DimensionMismatchError(ValueError):
    pass


def qvec(*coords) -> QVec:
    """Convenience constructor: qvec(1, '1/2', -3)."""
    return QVec(coords)


def zero_vector(dim: int) -> QVec:
    return QVec([0] * dim)


def unit_vector(dim: int) -> QVec:
    """The distinguished unit effect (0, ..., 0, 1) in standard coordinates."""
    return QVec([0] * (dim - 1) + [1])


def as_integers(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers xi and the least positive scale s with vec = xi / s."""
    s = math.lcm(*(c.denominator for c in vec))
    return [c.numerator * (s // c.denominator) for c in vec], s


def integerize(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a primitive int vector."""
    ints, _ = as_integers(vec)
    g = math.gcd(*ints)
    if g > 1:
        return tuple(v // g for v in ints)
    return tuple(ints)


# -- exact linear solving (fraction-free) -----------------------------------

def _int_rows(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    out = []
    for row, b in zip(rows, rhs):
        lcm = 1
        for c in list(row) + [b]:
            c = as_fraction(c)
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        out.append([int(as_fraction(c) * lcm) for c in row] + [int(as_fraction(b) * lcm)])
    return out


def _bareiss(m: list[Sequence[int]], n_cols: int) -> list[int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Pivots are sought in the first ``n_cols`` columns; every column of a row
    is eliminated, so augmented columns ride along.  Each division is exact.
    Leaves an echelon form and returns the pivot columns, one per row of it.
    """
    n_rows = len(m)
    prev = 1
    piv_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            f = row[c]
            m[i] = [(x * p - f * y) // prev for x, y in zip(row, prow)]
        prev = p
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return piv_cols


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly via fraction-free (Bareiss) elimination.

    Returns a pair (status, solution) where status is one of 'unique',
    'inconsistent' or 'underdetermined'; solution is a QVec only for
    'unique'.  Overdetermined-but-consistent systems count as unique.
    """
    if not rows:
        raise ValueError("no equations")
    n_cols = len(rows[0])
    m = _int_rows(rows, rhs)
    piv_cols = _bareiss(m, n_cols)
    r = len(piv_cols)
    for i in range(r, len(m)):
        if all(m[i][j] == 0 for j in range(n_cols)) and m[i][n_cols] != 0:
            return "inconsistent", None
    if r < n_cols:
        return "underdetermined", None
    x = [Fraction(0)] * n_cols
    for k in range(r - 1, -1, -1):
        c = piv_cols[k]
        s = Fraction(m[k][n_cols])
        for j in range(c + 1, n_cols):
            s -= m[k][j] * x[j]
        x[c] = s / m[k][c]
    # Bareiss leaves an echelon form with fill above pivots; verify against
    # the original system to also catch inconsistent overdetermined input.
    for row, b in zip(rows, rhs):
        if sum(as_fraction(a) * xv for a, xv in zip(row, x)) != as_fraction(b):
            return "inconsistent", None
    return "unique", QVec(x)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix, exact: each row is scaled to a primitive
    integer vector, then eliminated fraction-free."""
    if not rows:
        return 0
    m = [integerize([as_fraction(c) for c in row]) for row in rows]
    return len(_bareiss(m, len(m[0])))


class SingularMatrixError(ValueError):
    pass


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[QVec, ...]:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    a = [[as_fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(QVec(row[n:]) for row in a)


def transpose(rows: Sequence[Sequence[Fraction]]) -> tuple[QVec, ...]:
    return tuple(QVec(col) for col in zip(*rows))


def matvec(rows: Sequence[QVec], x: QVec) -> QVec:
    return QVec(QVec(r).dot(x) for r in rows)


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    m = [[as_fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        p = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / p
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return det
