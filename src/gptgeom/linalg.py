"""Exact rational vectors, matrices and linear solving.

The API takes and returns ``fractions.Fraction``; floats are rejected at the
boundary so that set equalities downstream are decidable.  The kernels run on
integers (:func:`as_integers`); their results become QVecs via ``QVec._raw``.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

# the whole literal, surrounding whitespace allowed: numerator, denominator
_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/([1-9]\d*))?\s*")


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
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ExactArithmeticError(f"not an exact rational literal: {text!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


class QVec(tuple):
    """Immutable exact rational vector.

    Subclasses tuple, so instances are hashable and ordered; ``+``, ``-``
    and scalar ``*`` act componentwise rather than as sequence operators.
    A non-QVec operand is coerced by ``QVec(...)``, a scalar by :func:`as_fraction`.
    """

    def __new__(cls, coords: Iterable) -> "QVec":
        return super().__new__(cls, (as_fraction(c) for c in coords))

    @classmethod
    def _raw(cls, fractions: Iterable[Fraction]) -> "QVec":
        """Trusted constructor: the coordinates are Fractions already."""
        return tuple.__new__(cls, fractions)

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
        other = other if type(other) is QVec else QVec(other)
        if len(self) != len(other):
            raise DimensionMismatchError("vector addition dimension mismatch")
        return QVec._raw(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = other if type(other) is QVec else QVec(other)
        if len(self) != len(other):
            raise DimensionMismatchError("vector subtraction dimension mismatch")
        return QVec._raw(a - b for a, b in zip(self, other))

    def __neg__(self):
        return QVec._raw(-a for a in self)

    def __mul__(self, scalar):
        scalar = as_fraction(scalar)
        return QVec._raw(a * scalar for a in self)

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

def _bareiss(m: list[Sequence[int]], n_cols: int) -> tuple[list[int], list[int]]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Pivots are sought in the first ``n_cols`` columns; every column of a row
    is eliminated, so augmented columns ride along.  Each division is exact.
    Leaves an echelon form and returns its pivot columns, one per row of it,
    and the row order: the input index of each row the elimination left.
    """
    n_rows = len(m)
    order = list(range(n_rows))
    prev = 1
    piv_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        order[r], order[piv] = order[piv], order[r]
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
    return piv_cols, order


def _back_substitute(m: list[list[int]], n: int, b: int) -> list[Fraction]:
    """Solution x of the first n rows of an echelon form whose pivots sit
    on the diagonal, with column b as the right-hand side."""
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        s = Fraction(row[b])
        for j in range(k + 1, n):
            s -= row[j] * x[j]
        x[k] = s / row[k]
    return x


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve A x = b exactly, on integers.

    Each row of A is scaled to integers A_i / t_i on its own, and a Bareiss
    elimination of these rows alone picks a basis: r rows whose pivot
    columns form a nonsingular r x r system.  That system, with its values,
    is solved exactly; the other n - r unknowns are 0.  Then every input
    row is checked on integers: with x = X / s, row i holds iff
    (A_i . X) den(b_i) == num(b_i) s t_i.

    Returns a pair (status, solution) where status is one of 'unique',
    'inconsistent' or 'underdetermined'; solution is a QVec only for
    'unique'.  A failed row makes the system 'inconsistent', even when it
    is also rank-deficient; otherwise r < n is 'underdetermined'.
    Overdetermined-but-consistent systems count as unique.
    """
    if not rows:
        raise ValueError("no equations")
    n_cols = len(rows[0])
    for row in rows:
        if len(row) != n_cols:
            raise DimensionMismatchError(f"rows of length {n_cols} and {len(row)}")
    scaled = [as_integers([as_fraction(c) for c in row]) for row in rows]
    vals = [as_fraction(b) for b in rhs]
    piv, order = _bareiss([a for a, _ in scaled], n_cols)
    r = len(piv)
    basis = [[scaled[i][0][c] * vals[i].denominator for c in piv]
             + [vals[i].numerator * scaled[i][1]] for i in order[:r]]
    _bareiss(basis, r)
    x = [Fraction(0)] * n_cols
    for c, xc in zip(piv, _back_substitute(basis, r, r)):
        x[c] = xc
    xi, s = as_integers(x)
    for (a, t), b in zip(scaled, vals):
        if sum(p * q for p, q in zip(a, xi)) * b.denominator != b.numerator * s * t:
            return "inconsistent", None
    if r < n_cols:
        return "underdetermined", None
    return "unique", QVec(x)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix, exact: each row is scaled to a primitive
    integer vector, then eliminated fraction-free."""
    if not rows:
        return 0
    m = [integerize([as_fraction(c) for c in row]) for row in rows]
    return len(_bareiss(m, len(m[0]))[0])


class SingularMatrixError(ValueError):
    pass


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[QVec, ...]:
    """Exact inverse of a square rational matrix: Bareiss elimination of
    [A | I], each row scaled to integers, then one back-substitution per
    column of the identity."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix is not square")
    m = [as_integers([as_fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)])[0]
         for i, row in enumerate(rows)]
    if len(_bareiss(m, n)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    cols = [_back_substitute(m, n, n + j) for j in range(n)]
    return tuple(QVec(row) for row in zip(*cols))


def transpose(rows: Sequence[Sequence[Fraction]]) -> tuple[QVec, ...]:
    return tuple(QVec(col) for col in zip(*rows))


def matvec(rows: Sequence[QVec], x: QVec) -> QVec:
    return QVec(QVec(r).dot(x) for r in rows)
