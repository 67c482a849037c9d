"""Exact convex geometry: hulls, V/H conversion, cones and duality.

The single computational core is an integer double-description pass
(:func:`_dd`): given homogeneous halfspaces ``{x : a.x >= 0}`` it returns
the extreme rays of their intersection, each with its tight mask (bit ``i``
set iff row ``i`` holds with equality on the ray), and a lineality basis.
Facet enumeration, vertex enumeration, hull reduction and cone duality are
all phrased as instances of this one primitive, and each result is read one
way, which keeps the exactness argument in one place.  :func:`_irredundant`
keeps the rows that are the only row tight on every ray tight at them:
:func:`hull_reduce` reads the vertices from the facet masks of one pass over
the lifted points, and :func:`hrep_to_vrep` the facets from the vertex masks
of one pass over the distinct halfspaces.  :func:`_cone_from_normals` reads
every cone's generators from one pass over its normals.  Results leave the
kernel as rows (x, s), s > 0, made points once by one sort, :func:`_vertex_order`.

Before the adjacency scan, a pair of rays is dropped when its common tight
set has fewer than ``dim - len(lin) - 2`` members (one popcount), a
necessary condition for adjacency.  Membership tests run on primitive
integer facets.  The method is still exponential in the worst case: a
restricted random system of ambient dimension 7 takes seconds to
generate, and dimension 8 is the current frontier.

Every DD result is proved right on the rows it came from before it is
read: each ray on the valid side of each row, each mask exactly the
ray's tight rows, each lineality vector zero on every row.  From 8 rows
on, the products of one ray with all rows come from ``len(row)`` products of
packed integers whose fields have room for the largest product the entry
sizes allow, so none carries into the next (:func:`_check_incidence`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .linalg import (
    DimensionMismatchError,
    QVec,
    _bareiss,
    as_fraction,
    as_integers,
    integerize,
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

    The rows are inserted in the order given, and the cost depends heavily
    on it (Fukuda & Prodon 1996; Avis, Bremner & Seidel 1997).
    :func:`hrep_to_vrep` passes its distinct rows sorted lexicographically
    (cdd's "lexmin"): for E(S) of the 512-gon that cuts the pass from about
    8 s to about 1 s, and no other order tried on its passes saved more
    than about 12 % of the adjacent pairs.  :func:`_hull` passes its points
    largest common denominator first (see there).  These two and
    :func:`_cone_from_normals` are its only callers; each proves the result
    with :func:`_check_incidence`, and the two that read masks pick
    vertices or facets from them only through :func:`_irredundant`.
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


def _irredundant(masks: Iterable[int], n: int) -> list[int]:
    """The rows, of n, that are the only row tight on every ray tight at
    them: the vertices over a hull's facet masks (every face is cut out by
    the facets containing it), the facets over a full-dimensional body's
    vertex masks (see :func:`hrep_to_vrep`)."""
    common = [(1 << n) - 1] * n
    for mask in masks:
        for i in _bits(mask):
            common[i] &= mask
    return [i for i in range(n) if common[i] == 1 << i]


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
        h.normal = QVec._raw(map(Fraction, inormal))
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
        return f"Halfspace(({', '.join(map(str, self.normal))}) . x >= {self.offset})"


class Polytope:
    """Bounded convex polytope held as an irredundant, sorted vertex tuple,
    the primitive integer row (x, s), s > 0, of each vertex x / s in
    ``rows`` (vertex order), plus its facets once they are known.

    Which constructor keeps which representation (each keeps the rows):

    - ``Polytope(points)`` and :func:`hull_reduce` derive vertices and
      facets in one DD pass and keep both.
    - :func:`hrep_to_vrep` keeps the irredundant input halfspaces as the
      facets when the body is full-dimensional; for a lower-dimensional
      body the facets are derived from the vertices on first use.
    - ``Polytope._raw(vertices, facets, rows)`` keeps what it is given;
      missing rows are scaled from the vertices at once, missing facets
      are derived from the vertices on first use.

    Facets are never derived twice; values are immutable afterwards, so
    instances are safe to share across threads.  The same holds for the
    memos the system layer keeps (E(S) on a ``StateSpace``, the
    classification on a ``GptSystem``): two threads that race on an empty
    memo each compute and store an equal value, and either may win.
    """

    __slots__ = ("vertices", "rows", "_facets")

    def __init__(self, points: Iterable[Sequence]):
        reduced = hull_reduce(points)
        self.vertices = reduced.vertices
        self.rows = reduced.rows
        self._facets = reduced._facets

    @classmethod
    def _raw(cls, vertices: tuple[QVec, ...], facets=None, rows=None) -> "Polytope":
        p = object.__new__(cls)
        p.vertices = vertices
        p.rows = tuple(map(_lifted, vertices)) if rows is None else rows
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
        # the rows (x, s), s > 0, span a space one larger than the affine hull
        return len(_bareiss(list(self.rows), self.dim + 1)[0]) - 1

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
    antipodal generator pairs.  Every cone is read from one DD pass over its
    normals (:func:`_cone_from_normals`); ``Cone(gens)`` makes two, over the
    generators for the dual, then over the dual's generators, its normals.
    ``Cone._raw(gens, halfspaces)`` keeps both as given.  Both keep integer
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
        dual = _cone_from_normals([g for g in gens if not g.is_zero()], dim)
        self.rays = dual_cone(dual).rays
        self._halfspaces = dual.rays
        self._inormals = None

    @classmethod
    def _raw(cls, rays: tuple[QVec, ...], halfspaces) -> "Cone":
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
        return self._halfspaces

    def contains(self, x, strict: bool = False) -> bool:
        x = QVec(x)
        if self.is_trivial():
            return x.is_zero() and not strict
        if self._inormals is None:
            self._inormals = [integerize(n) for n in self.halfspaces]
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


def _cone_from_normals(normals: Sequence[QVec], dim: int) -> Cone:
    """The cone {x : n.x >= 0 for all n}, keeping the normals as its
    halfspaces.  Its sorted generators are the DD rays and the lineality
    basis as antipodal pairs (sorted as ints), or the origin alone."""
    rows = [integerize(n) for n in normals]
    rays, lin = _dd(rows, dim)
    _check_incidence(rays, lin, rows, normals,
                     "generator {g} is misplaced against normal {name}")
    gens = [r for r, _ in rays]
    for l in lin:
        gens += [l, tuple(-x for x in l)]
    return Cone._raw(tuple(QVec._raw(map(Fraction, g)) for g in sorted(gens))
                     or (zero_vector(dim),), tuple(normals))


# ---------------------------------------------------------------------------
# public operations


def hull_reduce(points: Iterable[Sequence]) -> Polytope:
    """Irredundant vertex set of the convex hull of the given points; the
    result keeps the facets found on the way.  Points are deduped on their
    lifted rows (x, s), and a QVec is kept as given."""
    first: dict[IntVec, QVec] = {}  # each distinct row: its first point
    for p in points:
        v = p if type(p) is QVec else QVec(p)
        first.setdefault(_lifted(v), v)
    if not first:
        raise EmptyInputError("hull of no points")
    dim = len(next(iter(first))) - 1
    if any(len(r) != dim + 1 for r in first):
        raise DimensionMismatchError("hull input of mixed dimension")
    return _hull(first, dim)


def _lifted(v: QVec) -> IntVec:
    """The primitive row (x, s), s > 0, of the point v = x / s."""
    x, s = as_integers(v)
    return (*x, s)


def _vertex_order(points: dict[IntVec, QVec | None]) -> list[tuple[IntVec, QVec]]:
    """Each row (x, s), s > 0, of ``points`` with its point x / s (the QVec it
    maps to, or a new one where it maps to None), sorted by point.  A
    coordinate keys as x 2^64 // s, then its Fraction, so ints decide nearly
    every comparison and the order is exact.  (An lcm key grows with the body:
    5291 bits for E(S) of the 1024-gon.)"""
    keyed = []
    for r, v in points.items():
        s = r[-1]
        if v is None:
            v = QVec._raw([Fraction(x, s) for x in r[:-1]])
        keyed.append(([k for x, c in zip(r, v) for k in ((x << 64) // s, c)], r, v))
    keyed.sort(key=itemgetter(0))
    return [(r, v) for _, r, v in keyed]


def _packed_products(rows: Sequence[IntVec], vectors: Sequence[IntVec]
                     ) -> tuple[int, int, Iterator[int]]:
    """The products g.row of each vector g with all V rows, packed: the
    field width in bytes, the top-bit pattern ``top`` and, for each vector,
    one int whose field i holds g.row_i biased by 2^(W - 1).

    All V products of one vector run as ``len(row)`` big-int multiply-adds:
    column j of the rows is packed into one int of V fields of W bits,
    row i in field i.  With R, G the largest entries of the rows and of the
    vectors and D the row length, every product has |p| <= D R G <
    2^(bits(D) + bits(R) + bits(G)) <= 2^(W - 2), so once each field is
    biased by 2^(W - 1) it lies in [1, 2^W) and no field carries into the
    next.  A clear top bit is then a negative product.
    """
    bits = (max(map(int.bit_length, chain.from_iterable(rows)))
            + max(map(int.bit_length, chain.from_iterable(vectors)), default=0)
            + len(rows[0]).bit_length() + 2)
    size = -(-bits // 8)  # bytes per field
    half = 1 << (8 * size - 1)
    top = int.from_bytes((b"\x00" * (size - 1) + b"\x80") * len(rows), "little")
    packed = [int.from_bytes(b"".join((x + half).to_bytes(size, "little") for x in col),
                             "little") - top
              for col in zip(*rows)]
    return size, top, (sum(map(mul, g, packed)) + top for g in vectors)


# Below this many rows a plain product loop beats a packed pass, in the sign
# passes and in the incidence proof; they tie near 6 to 8 rows
_PACKED_ROWS = 8


def _packed_signs(rows: Sequence[IntVec], vectors: Sequence[IntVec]) -> Iterator[bool]:
    """For each vector g, whether g.row >= 0 on every row: packed
    (:func:`_packed_products`) from ``_PACKED_ROWS`` rows on, a plain
    product loop below."""
    if len(rows) < _PACKED_ROWS:
        return (all(_idot(g, row) >= 0 for row in rows) for g in vectors)
    _, top, products = _packed_products(rows, vectors)
    return (biased & top == top for biased in products)


# maps the top bytes of a packed nonzero pattern to binary digits: a field
# whose top bit is clear holds a zero product, a set bit of the mask
_ZERO_DIGIT = bytes.maketrans(b"\x80\x00", b"01")


def _packed_incidence(rows: Sequence[IntVec], vectors: Sequence[IntVec]
                      ) -> Iterator[tuple[bool, int]]:
    """For each vector g, whether g.row >= 0 on every row, and the mask of
    the rows with g.row == 0 (read only when the first holds).

    With every top bit of the packed products set (:func:`_packed_products`),
    adding 2^(W - 1) - 1 to the fields with their top bits cleared sets the
    top bit exactly where p != 0; the fields' top bytes, read as binary
    digits, give the mask.
    """
    n = len(rows)
    size, top, products = _packed_products(rows, vectors)
    low = top - int.from_bytes((b"\x01" + b"\x00" * (size - 1)) * n, "little")
    for biased in products:
        nonzero = ((biased ^ top) + low) & top
        yield (biased & top == top,
               int(nonzero.to_bytes(n * size, "big")[::size].translate(_ZERO_DIGIT), 2))


def _check_incidence(rays: list[tuple[IntVec, int]], lin: list[IntVec],
                     rows: Sequence[IntVec], names: Sequence,
                     wording: str = "facet {g} misplaces input point {name}") -> None:
    """Raise SelfCheckError unless every ray g has g.row >= 0 on every row,
    with equality exactly on the rows its mask names, and every lineality
    vector l has l.row == 0 on every row.  From ``_PACKED_ROWS`` rows on the
    products run packed (:func:`_packed_incidence`); below, or on a failure,
    the plain loop runs, and names the first misplaced pair in ``wording``.
    """
    if not rows or not (rays or lin):
        return
    packed = len(rows) >= _PACKED_ROWS
    if packed:
        masks = [m for _, m in rays] + [(1 << len(rows)) - 1] * len(lin)
        found = _packed_incidence(rows, [g for g, _ in rays] + lin)
        if all(valid and zeros == mask for (valid, zeros), mask in zip(found, masks)):
            return
    for g, mask in rays:
        for i, row in enumerate(rows):
            v = _idot(g, row)
            if v < 0 or (v == 0) != bool(mask >> i & 1):
                raise SelfCheckError(wording.format(g=g, name=names[i]))
    if any(_idot(l, row) for l in lin for row in rows):
        raise SelfCheckError("an affine-hull equation fails on an input point")
    if packed:
        raise SelfCheckError("the packed incidence check and the product loop disagree")


def _hull(points: dict[IntVec, QVec], dim: int) -> Polytope:
    """One DD pass over the distinct primitive lifted points (x, s), s > 0,
    the keys of ``points``, sorted by their points x / s
    (:func:`_vertex_order`), handed to :func:`_dd` largest common denominator
    s first, and in sorted order among equal denominators.

    On the cut bodies of the restrict benchmark and the random generator,
    the large-denominator points are the vertices the cuts created.  Their
    hull is already close to the final body, so the later corners (E(S)'s
    vertices, 0 and u) each add few facets.  On the 10 restrict hull inputs
    of benchmark seeds 11 and 3, against the sorted order, the adjacent
    pairs went from 20 993 to 8 164, the pairs scanned from 848 166 to
    538 202 and the rays visited by adjacency tests from 1.87 M to 0.81 M.
    Largest entry first came close; the sorted integer rows, coordinate
    sums and reversed sweeps did worse.

    A ray (a, t) is the valid inequality a.x + t >= 0.  Rays tight on some
    point are the facets relative to the affine hull, and the lineality
    basis gives its equations.  The vertices are the points
    :func:`_irredundant` keeps over the facet masks, in sorted order.
    :func:`_check_incidence` proves every facet, mask and equation against
    every lifted point, in the order :func:`_dd` saw them, before the masks
    are read.
    """
    ordered = _vertex_order(points)
    # largest common denominator first; the sort is stable
    order = sorted(range(len(ordered)), key=lambda i: -ordered[i][0][-1])
    rows, pts = [ordered[i][0] for i in order], [ordered[i][1] for i in order]
    rays, lin = _dd(rows, dim + 1)
    _check_incidence(rays, lin, rows, pts)
    facet_rays = [(g, mask) for g, mask in rays if mask and any(g[:dim])]
    kept = sorted(_irredundant((m for _, m in facet_rays), len(pts)), key=order.__getitem__)
    facets = [Halfspace._from_ints(g[:dim], -g[dim]) for g, _ in facet_rays]
    for l in lin:
        facets.append(Halfspace._from_ints(l[:dim], -l[dim]))
        facets.append(Halfspace._from_ints(tuple(-x for x in l[:dim]), l[dim]))
    return Polytope._raw(tuple(pts[k] for k in kept), tuple(facets),
                         tuple(rows[k] for k in kept))


def vrep_to_hrep(p: Polytope) -> list[Halfspace]:
    """Facet description of a polytope (equality pairs when degenerate),
    derived from its vertices."""
    return list(_hull(dict(zip(p.rows, p.vertices)), p.dim).facets)


def hrep_to_vrep(halfspaces: Sequence[Halfspace]) -> Polytope:
    """Vertices of a bounded halfspace intersection.

    :func:`_dd` gets each distinct homogenized row once (a repeated
    halfspace as its first copy) in lexicographic order, several times
    faster than the caller's order (for E(S) the pair 0 <= w.e <= 1 per
    state vertex).  On a full-dimensional body the rows
    :func:`_irredundant` keeps over the vertex masks are kept as its
    facets, in input order.  They are the rows with maximal tight vertex
    sets: a facet's vertices span its hyperplane, so the facet's primitive
    row is the only row tight on all of them, and a row tight on a smaller
    face shares its vertices with a facet through it.  A lower-dimensional
    body has two or more rows tight on every vertex (each implicit
    equation is a positive combination of others), so none is kept and its
    facets are derived from the vertices on first use.  No answer depends
    on the insertion order; :func:`_check_incidence` proves the vertices
    and masks against every row before they are read.  Raises
    UnboundedError when the intersection has a recession direction and
    EmptyIntersectionError when it is empty.
    """
    if not halfspaces:
        raise EmptyInputError("no halfspaces")
    dim = halfspaces[0].normal.dim
    if any(h.normal.dim != dim for h in halfspaces):
        raise DimensionMismatchError("halfspaces of mixed dimension")
    first: dict[IntVec, int] = {}  # each distinct row: its first input index
    for i, h in enumerate(halfspaces):
        first.setdefault(h.inormal + (-h.ioffset,), i)
    first[(0,) * dim + (1,)] = len(halfspaces)  # homogenization s >= 0
    rows = sorted(first)
    rays, lin = _dd(rows, dim + 1)
    labels = (*halfspaces, "s >= 0")
    _check_incidence(rays, lin, rows, [labels[first[r]] for r in rows],
                     "homogeneous vertex {g} is misplaced against {name}")
    vertices = {}  # each vertex's row (x, s), s > 0: its mask
    recession = False
    for g, mask in rays:
        if g[dim] > 0:
            vertices[g] = mask
        elif any(g[:dim]):
            recession = True
    if not vertices:
        # lineality can only pass through points of the set, so an empty
        # vertex list means an empty intersection regardless of lin
        raise EmptyIntersectionError("halfspace intersection is empty")
    if recession or lin:
        raise UnboundedError("halfspace intersection is unbounded")
    kept = sorted(first[rows[k]] for k in _irredundant(vertices.values(), len(rows)))
    vrows, pts = zip(*_vertex_order(dict.fromkeys(vertices)))
    return Polytope._raw(pts, tuple(halfspaces[i] for i in kept) or None, vrows)


def positive_cone(p: Polytope) -> Cone:
    """All nonnegative scalings of points of p (generated by its vertices)."""
    return Cone(p.vertices)


def dual_cone(c: Cone) -> Cone:
    """Vectors with nonnegative inner product against the whole cone."""
    # the generators of c are by definition valid halfspaces for the dual
    return _cone_from_normals([r for r in c.rays if not r.is_zero()], c.dim)


def cone_intersect(a: Cone, b: Cone) -> Cone:
    if a.dim != b.dim:
        raise DimensionMismatchError("cone intersection dimension mismatch")
    normals = a.halfspaces + b.halfspaces
    if not normals:
        raise EmptyInputError("cone intersection without constraints")
    return _cone_from_normals(normals, a.dim)


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
    h = Halfspace(normal, offset)
    # the whole space has the zero vector as its only normal
    return hrep_to_vrep([Halfspace(n, 0) for n in c.halfspaces if not n.is_zero()]
                        + [h, Halfspace(-h.normal, -h.offset)])


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
