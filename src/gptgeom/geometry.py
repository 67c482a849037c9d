"""Exact convex geometry: hulls, V/H conversion, cones and duality.

The single computational core is an integer double-description pass
(:func:`_dd`): given homogeneous halfspaces ``{x : a.x >= 0}`` it returns
the extreme rays of their intersection, each with its tight mask (bit ``i``
set iff row ``i`` holds with equality on the ray), and a lineality basis.
Facet enumeration, vertex enumeration, hull reduction and cone duality are
all phrased as instances of this one primitive and read what they need from
its incidence, which keeps the exactness argument in one place:

- :func:`hull_reduce` runs one pass over the lifted points; the rays are
  the facets, and a point is a vertex iff the points tight on all of its
  facets are the point alone.
- :func:`hrep_to_vrep` runs one pass over the halfspaces; for a
  full-dimensional body the input halfspaces with maximal tight vertex
  sets are kept as its facets.

Before the adjacency scan, a pair of rays is dropped when its common tight
set has fewer than ``dim - len(lin) - 2`` members (one popcount), a
necessary condition for adjacency.  Membership tests run on primitive
integer facets.  The method is still exponential in the worst case: the
restricted random systems of ambient dimension 6 take seconds, and
dimension 7 is the current frontier.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    DimensionMismatchError,
    QVec,
    as_fraction,
    as_integers,
    integerize,
    rank,
    zero_vector,
)


class EmptyInputError(ValueError):
    pass


class UnboundedError(ValueError):
    """A vertex enumeration found a recession direction."""


class EmptyIntersectionError(ValueError):
    pass


class SelfCheckError(RuntimeError):
    """An internal exactness check failed: a bug, never a property of the
    input.  Raised explicitly, so the checks also run under ``python -O``."""


# ---------------------------------------------------------------------------
# double description over the integers

IntVec = tuple[int, ...]


def _idot(a: IntVec, b: IntVec) -> int:
    return sum(map(mul, a, b))


def _iprim(vec: IntVec) -> IntVec:
    g = math.gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return vec


def _bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dd(normals: Sequence[IntVec], dim: int
        ) -> tuple[list[tuple[IntVec, int]], list[IntVec]]:
    """Extreme rays, each with its tight mask, and lineality basis of
    {x : n.x >= 0 for all n}.

    Incremental double description.  Rays carry a bitmask of the processed
    halfspaces they satisfy with equality; two rays on opposite sides of a
    new halfspace are combined only when adjacent.  A pair whose common
    tight set is smaller than ``dim - len(lin) - 2`` cannot be adjacent and
    is skipped on a popcount; the others get the standard combinatorial
    criterion (no third ray is tight on a superset of their common tight
    set).  The lineality space is maintained explicitly and split off one
    pivot at a time.  On return each mask covers all rows of ``normals``.
    """
    lin: list[IntVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IntVec, int]] = []
    for idx, a in enumerate(normals):
        bit = 1 << idx
        vals = [_idot(a, l) for l in lin]
        piv = next((i for i, v in enumerate(vals) if v != 0), None)
        if piv is not None:
            b0, v0 = lin[piv], vals[piv]
            if v0 < 0:
                b0 = tuple(-x for x in b0)
                v0 = -v0
            lin = [
                _iprim(tuple(v0 * lx - vv * bx for lx, bx in zip(l, b0)))
                for i, (l, vv) in enumerate(zip(lin, vals))
                if i != piv
            ]
            rays = [
                (_iprim(tuple(v0 * rx - _idot(a, r) * bx for rx, bx in zip(r, b0))),
                 mask | bit)
                for r, mask in rays
            ]
            rays = [(r, m) for r, m in rays if any(r)]
            rays.append((b0, bit - 1))
            continue
        pos, zero, neg = [], [], []
        for r, mask in rays:
            v = _idot(a, r)
            if v > 0:
                pos.append((r, mask, v))
            elif v < 0:
                neg.append((r, mask, v))
            else:
                zero.append((r, mask | bit))
        new_rays = [(r, m) for r, m, _ in pos] + zero
        min_common = dim - len(lin) - 2
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                common = mp & mn
                if common.bit_count() < min_common:
                    continue
                adjacent = True
                for r3, m3 in rays:
                    if r3 is rp or r3 is rn:
                        continue
                    if m3 & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = _iprim(tuple(vp * x - vn * y for x, y in zip(rn, rp)))
                if not any(w):
                    raise SelfCheckError("antipodal rays escaped the lineality space")
                new_rays.append((w, common | bit))
        rays = new_rays
    return rays, lin


def _to_int(vecs: Iterable[Sequence[Fraction]]) -> list[IntVec]:
    return [integerize(v) for v in vecs]


# ---------------------------------------------------------------------------
# halfspaces and polytopes


class Halfspace:
    """Closed halfspace {x : normal.x >= offset}.

    Besides the rational ``normal`` and ``offset`` it carries the primitive
    integer pair (``inormal``, ``ioffset``), a positive multiple of them,
    on which membership tests and equality run.
    """

    __slots__ = ("normal", "offset", "inormal", "ioffset")

    def __init__(self, normal, offset):
        self.normal = QVec(normal)
        self.offset = as_fraction(offset)
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")
        ints = integerize(tuple(self.normal) + (self.offset,))
        self.inormal, self.ioffset = ints[:-1], ints[-1]

    @classmethod
    def _from_ints(cls, inormal: IntVec, ioffset: int) -> "Halfspace":
        """From a primitive integer pair with a nonzero normal."""
        h = object.__new__(cls)
        h.normal = QVec(inormal)
        h.offset = Fraction(ioffset)
        h.inormal, h.ioffset = inormal, ioffset
        return h

    def evaluate(self, x: QVec) -> Fraction:
        return self.normal.dot(x) - self.offset

    def holds(self, x: QVec, strict: bool = False) -> bool:
        v = self.evaluate(x)
        return v > 0 if strict else v >= 0

    def __eq__(self, other):
        if not isinstance(other, Halfspace):
            return NotImplemented
        return self.inormal == other.inormal and self.ioffset == other.ioffset

    def __hash__(self):
        return hash((self.inormal, self.ioffset))

    def __repr__(self):
        return f"Halfspace({list(self.normal)} . x >= {self.offset})"


class Polytope:
    """Bounded convex polytope held as an irredundant, sorted vertex tuple,
    plus its facets once they are known.

    Which constructor keeps which representation:

    - ``Polytope(points)`` and :func:`hull_reduce` derive vertices and
      facets in one DD pass and keep both.
    - :func:`hrep_to_vrep` keeps the irredundant input halfspaces as the
      facets when the body is full-dimensional; for a lower-dimensional
      body the facets are derived from the vertices on first use.
    - ``Polytope._raw(vertices, facets)`` keeps what it is given; missing
      facets are derived from the vertices on first use.

    Facets are never derived twice; values are immutable afterwards, so
    instances are safe to share across threads.  The same holds for the
    memos the system layer keeps (E(S) on a ``StateSpace``, the
    classification on a ``GptSystem``): two threads that race on an empty
    memo each compute and store an equal value, and either may win.
    """

    __slots__ = ("vertices", "_facets")

    def __init__(self, points: Iterable[Sequence]):
        pts = [QVec(p) for p in points]
        reduced = hull_reduce(pts)
        self.vertices = reduced.vertices
        self._facets = reduced._facets

    @classmethod
    def _raw(cls, vertices: tuple[QVec, ...], facets=None) -> "Polytope":
        p = object.__new__(cls)
        p.vertices = vertices
        p._facets = facets
        return p

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @property
    def facets(self) -> tuple[Halfspace, ...]:
        if self._facets is None:
            self._facets = tuple(vrep_to_hrep(self))
        return self._facets

    def contains(self, x, strict: bool = False) -> bool:
        x = QVec(x)
        if len(x) != self.dim:
            raise DimensionMismatchError("point dimension differs from polytope")
        xi, s = as_integers(x)
        if strict:
            return all(_idot(h.inormal, xi) > h.ioffset * s for h in self.facets)
        return all(_idot(h.inormal, xi) >= h.ioffset * s for h in self.facets)

    def centroid(self) -> QVec:
        return sum(self.vertices[1:], self.vertices[0]) * Fraction(1, len(self.vertices))

    def affine_dim(self) -> int:
        v0 = self.vertices[0]
        if len(self.vertices) == 1:
            return 0
        return rank([v - v0 for v in self.vertices[1:]])

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices in R^{self.dim})"


class Cone:
    """Polyhedral cone generated by finitely many rays.

    ``Cone(gens)`` canonicalizes the generators up to positive scaling and
    keeps the extreme ones; a non-pointed cone carries its lineality as
    antipodal generator pairs.  It makes two dual passes: the first gives
    the homogeneous H-representation, the second the generators.
    ``Cone._raw(gens)`` keeps the generators as given and derives the
    H-representation by one dual pass on first use.  Both keep integer
    copies of the normals for membership tests.
    """

    __slots__ = ("rays", "_halfspaces", "_inormals")

    def __init__(self, rays: Iterable[Sequence]):
        gens = [QVec(r) for r in rays]
        if not gens:
            raise EmptyInputError("a cone needs at least one generator (may be 0)")
        dim = len(gens[0])
        if any(len(g) != dim for g in gens):
            raise DimensionMismatchError("cone generators of mixed dimension")
        dual = dual_cone(Cone._raw(tuple(gens)))
        self.rays = dual_cone(dual).rays
        self._halfspaces = dual.rays
        self._inormals = None

    @classmethod
    def _raw(cls, rays: tuple[QVec, ...], halfspaces=None) -> "Cone":
        c = object.__new__(cls)
        c.rays = rays
        c._halfspaces = halfspaces
        c._inormals = None
        return c

    @property
    def dim(self) -> int:
        return len(self.rays[0]) if self.rays else 0

    @property
    def halfspaces(self) -> tuple[QVec, ...]:
        """Normals n with cone = {x : n.x >= 0 for all n}."""
        if self._halfspaces is None:
            self._halfspaces = dual_cone(self).rays
        return self._halfspaces

    def contains(self, x, strict: bool = False) -> bool:
        x = QVec(x)
        if self.is_trivial():
            return x.is_zero() and not strict
        if self._inormals is None:
            self._inormals = _to_int(self.halfspaces)
        xi = integerize(x)
        if strict:
            return all(_idot(n, xi) > 0 for n in self._inormals)
        return all(_idot(n, xi) >= 0 for n in self._inormals)

    def is_trivial(self) -> bool:
        """True when the cone is the origin only."""
        return all(r.is_zero() for r in self.rays)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return all(other.contains(r) for r in self.rays) and all(
            self.contains(r) for r in other.rays
        )

    def __hash__(self):  # pragma: no cover - cones are compared, not hashed
        raise TypeError("Cone equality is semantic; cones are unhashable")

    def __repr__(self):
        return f"Cone({len(self.rays)} rays in R^{self.dim})"


def _cone_generators(rays: list[tuple[IntVec, int]], lin: list[IntVec], dim: int
                     ) -> tuple[QVec, ...]:
    """Canonical sorted generators from a DD result: the rays plus the
    lineality basis as antipodal pairs; the origin alone when both are empty."""
    out = [r for r, _ in rays]
    for l in lin:
        out.append(l)
        out.append(tuple(-x for x in l))
    if not out:
        return (zero_vector(dim),)
    return tuple(sorted(QVec(_iprim(r)) for r in out))


# ---------------------------------------------------------------------------
# public operations


def hull_reduce(points: Sequence[Sequence]) -> Polytope:
    """Irredundant vertex set of the convex hull of the given points; the
    result keeps the facets found on the way."""
    pts = [QVec(p) for p in points]
    if not pts:
        raise EmptyInputError("hull of no points")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionMismatchError("hull input of mixed dimension")
    return _hull(sorted(set(pts)), dim)


def _hull(pts: list[QVec], dim: int) -> Polytope:
    """One DD pass over the lifted distinct points (x, 1).

    A ray (a, t) is the valid inequality a.x + t >= 0.  Rays tight on some
    point are the facets relative to the affine hull, and the lineality
    basis gives its equations.  Every face is cut out by the facets that
    contain it, so a point is a vertex iff it is the only point tight on
    all of its tight facets.
    """
    rows = [integerize(tuple(p) + (Fraction(1),)) for p in pts]
    rays, lin = _dd(rows, dim + 1)
    # every input point must land inside its own hull, and the masks the
    # vertex test reads must be the true incidence
    for g, mask in rays:
        for i, row in enumerate(rows):
            v = _idot(g, row)
            if v < 0 or (v == 0) != bool(mask >> i & 1):
                raise SelfCheckError(f"facet {g} misplaces input point {pts[i]}")
    if any(_idot(l, row) for l in lin for row in rows):
        raise SelfCheckError("an affine-hull equation fails on an input point")
    facet_rays = [(g, mask) for g, mask in rays if mask and any(g[:dim])]
    # common[i]: the points tight on every facet that is tight at point i
    common = [(1 << len(pts)) - 1] * len(pts)
    for _, mask in facet_rays:
        for i in _bits(mask):
            common[i] &= mask
    vertices = tuple(p for i, p in enumerate(pts) if common[i] == 1 << i)
    facets = [Halfspace._from_ints(g[:dim], -g[dim]) for g, _ in facet_rays]
    for l in lin:
        facets.append(Halfspace._from_ints(l[:dim], -l[dim]))
        facets.append(Halfspace._from_ints(tuple(-x for x in l[:dim]), l[dim]))
    return Polytope._raw(vertices, tuple(facets))


def vrep_to_hrep(p: Polytope) -> list[Halfspace]:
    """Facet description of a polytope (equality pairs when degenerate),
    derived from its vertices."""
    return list(_hull(list(p.vertices), p.dim).facets)


def hrep_to_vrep(halfspaces: Sequence[Halfspace]) -> Polytope:
    """Vertices of a bounded halfspace intersection.

    When the body is full-dimensional it keeps, as its facets, the input
    halfspaces whose tight vertex sets are maximal (one per set).  Raises
    UnboundedError when the intersection has a recession direction and
    EmptyIntersectionError when it is empty.
    """
    if not halfspaces:
        raise EmptyInputError("no halfspaces")
    dim = halfspaces[0].normal.dim
    if any(h.normal.dim != dim for h in halfspaces):
        raise DimensionMismatchError("halfspaces of mixed dimension")
    rows = [h.inormal + (-h.ioffset,) for h in halfspaces]
    rows.append((0,) * dim + (1,))  # homogenization s >= 0
    rays, lin = _dd(rows, dim + 1)
    vertices = []
    recession = False
    for g, mask in rays:
        head, s = g[:dim], g[dim]
        if s > 0:
            vertices.append((QVec(Fraction(x, s) for x in head), mask))
        elif any(head):
            recession = True
    if not vertices:
        # lineality can only pass through points of the set, so an empty
        # vertex list means an empty intersection regardless of lin
        raise EmptyIntersectionError("halfspace intersection is empty")
    if recession or lin:
        raise UnboundedError("halfspace intersection is unbounded")
    facets = _kept_facets(halfspaces, [m for _, m in vertices])
    return Polytope._raw(tuple(sorted(v for v, _ in vertices)), facets)


def _kept_facets(halfspaces: Sequence[Halfspace], vertex_masks: list[int]):
    """The irredundant input halfspaces of a full-dimensional body, or None
    when some halfspace is tight on every vertex (a lower-dimensional body).

    Every facet of a full-dimensional body is one of the input halfspaces,
    and facets are its maximal proper faces, so a halfspace defines a facet
    iff its tight vertex set is nonempty and not strictly contained in
    another's.
    """
    tight = [0] * len(halfspaces)
    for k, mask in enumerate(vertex_masks):
        for j in _bits(mask):
            if j < len(halfspaces):  # the last row is the homogenization
                tight[j] |= 1 << k
    every = (1 << len(vertex_masks)) - 1
    if every in tight:
        return None
    kept: list[int] = []
    # a strict superset has more members, so it is met first in this order
    for j in sorted(range(len(tight)), key=lambda j: -tight[j].bit_count()):
        t = tight[j]
        if not t:
            break
        if not any(t & tight[k] == t for k in kept):
            kept.append(j)
    return tuple(halfspaces[j] for j in sorted(kept))


def positive_cone(p: Polytope) -> Cone:
    """All nonnegative scalings of points of p (generated by its vertices)."""
    return Cone(p.vertices)


def dual_cone(c: Cone) -> Cone:
    """Vectors with nonnegative inner product against the whole cone."""
    gens = [r for r in c.rays if not r.is_zero()]
    # with no generators the pass returns the whole space as lineality
    rays, lin = _dd(_to_int(gens), c.dim)
    # the generators of c are by definition valid halfspaces for the dual
    return Cone._raw(_cone_generators(rays, lin, c.dim), halfspaces=tuple(gens))


def cone_intersect(a: Cone, b: Cone) -> Cone:
    if a.dim != b.dim:
        raise DimensionMismatchError("cone intersection dimension mismatch")
    normals = list(a.halfspaces) + list(b.halfspaces)
    if not normals:
        raise EmptyInputError("cone intersection without constraints")
    rays, lin = _dd(_to_int(normals), a.dim)
    return Cone._raw(_cone_generators(rays, lin, a.dim),
                     halfspaces=tuple(QVec(n) for n in normals))


def polytope_intersect(a: Polytope, b: Polytope) -> Polytope:
    if a.dim != b.dim:
        raise DimensionMismatchError("polytope intersection dimension mismatch")
    return hrep_to_vrep(list(a.facets) + list(b.facets))


def slice_cone(c: Cone, normal, offset) -> Polytope:
    """Intersect a cone with the hyperplane normal.x = offset.

    The result must be bounded (UnboundedError otherwise); this implements
    intersections such as cutting a state cone with the normalization
    hyperplane.
    """
    normal = QVec(normal)
    offset = as_fraction(offset)
    # the whole space has the zero vector as its only normal
    constraints = [Halfspace(n, 0) for n in c.halfspaces if not n.is_zero()]
    constraints.append(Halfspace(normal, offset))
    constraints.append(Halfspace(-normal, -offset))
    return hrep_to_vrep(constraints)


def set_equal(a, b) -> bool:
    """Exact point-set equality for polytopes or cones."""
    if isinstance(a, Polytope) and isinstance(b, Polytope):
        if a.dim != b.dim:
            raise DimensionMismatchError("comparing polytopes of different dimension")
        return a.vertices == b.vertices
    if isinstance(a, Cone) and isinstance(b, Cone):
        if a.dim != b.dim:
            raise DimensionMismatchError("comparing cones of different dimension")
        return a == b
    raise TypeError("set_equal compares two polytopes or two cones")
