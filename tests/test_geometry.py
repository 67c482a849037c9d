"""Exact-geometry operations against independent oracles and hand values."""
import random
from fractions import Fraction

import pytest

from gptgeom.geometry import (
    Cone,
    EmptyInputError,
    EmptyIntersectionError,
    Halfspace,
    UnboundedError,
    cone_intersect,
    dual_cone,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
    slice_cone,
    vrep_to_hrep,
)
from gptgeom.linalg import DimensionMismatchError, QVec, qvec
from gptgeom.lp import cone_rays_lp, hull_vertices_lp, in_cone, in_convex_hull

F = Fraction


def rays_of(*vecs):
    return Cone([qvec(*v) for v in vecs])


# -- hull_reduce -------------------------------------------------------------

def test_hull_drops_midpoint():
    p = hull_reduce([qvec(0, 1), qvec(1, 1), qvec(F(1, 2), 1)])
    assert set(p.vertices) == {qvec(0, 1), qvec(1, 1)}


def test_hull_keeps_both_segment_ends():
    p = hull_reduce([qvec(-1, 1), qvec(1, 1)])
    assert set(p.vertices) == {qvec(-1, 1), qvec(1, 1)}


def test_hull_random_square_interior_vs_lp_oracle():
    gen = random.Random(5)
    corners = [qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)]
    pts = list(corners)
    for _ in range(50):
        pts.append(qvec(F(gen.randint(1, 15), 16), F(gen.randint(1, 15), 16)))
    oracle = hull_vertices_lp(pts)  # pairwise LP redundancy check
    assert sorted(oracle) == sorted(corners)
    assert sorted(hull_reduce(pts).vertices) == sorted(corners)


def test_hull_errors():
    with pytest.raises(EmptyInputError):
        hull_reduce([])
    with pytest.raises(DimensionMismatchError):
        hull_reduce([qvec(0, 1), qvec(0, 1, 2)])


# -- vrep_to_hrep ------------------------------------------------------------

def test_segment_hrep_point_set():
    seg = hull_reduce([qvec(0, 1), qvec(1, 1)])
    expected_hs = [
        Halfspace((0, 1), 1), Halfspace((0, -1), -1),
        Halfspace((1, 0), 0), Halfspace((-1, 0), -1),
    ]
    assert set_equal(hrep_to_vrep(vrep_to_hrep(seg)), hrep_to_vrep(expected_hs))


def test_unit_square_has_four_facets():
    sq = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    assert len(sq.facets) == 4
    assert set_equal(hrep_to_vrep(list(sq.facets)), sq)


def _octahedron_states():
    verts = []
    for i in range(3):
        for s in (1, -1):
            v = [0, 0, 0, 1]
            v[i] = s
            verts.append(qvec(*v))
    return hull_reduce(verts)


def _facet_oracle_3d(points3):
    """Brute-force facet search over vertex triples of a full-dim 3D body."""
    import itertools
    facets = set()
    for a, b, c in itertools.combinations(points3, 3):
        u, v = b - a, c - a
        n = qvec(
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if n.is_zero():
            continue
        off = n.dot(a)
        vals = [n.dot(p) - off for p in points3]
        if all(x >= 0 for x in vals):
            facets.add(Halfspace(n, off))
        elif all(x <= 0 for x in vals):
            facets.add(Halfspace(-n, -off))
    return facets


def test_octahedron_facets_match_triple_oracle():
    oct4 = _octahedron_states()
    pts3 = [QVec(v[:3]) for v in oct4.vertices]
    oracle = _facet_oracle_3d(pts3)
    signs = [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    expected = {Halfspace((-s1, -s2, -s3), -1) for s1, s2, s3 in signs}
    assert oracle == expected  # the 8 sign facets, found independently
    # the 4D H-rep cuts out the same point set: slice-reduce each inequality
    reduced = set()
    for h in oct4.facets:
        head, last = QVec(h.normal[:3]), h.normal[3]
        if head.is_zero():
            continue  # combines with the unit-weight equality only
        reduced.add(Halfspace(head, h.offset - last))
    assert reduced <= expected
    back = hrep_to_vrep(list(oct4.facets))
    assert set_equal(back, oct4)


# -- hrep_to_vrep ------------------------------------------------------------

def test_square_from_halfspaces():
    hs = [
        Halfspace((1, 0), 0), Halfspace((-1, 0), -1),
        Halfspace((0, 1), 0), Halfspace((0, -1), -1),
    ]
    assert set(hrep_to_vrep(hs).vertices) == {
        qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)
    }


def test_triangle_from_halfspaces():
    hs = [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), -1)]
    assert set(hrep_to_vrep(hs).vertices) == {qvec(0, 0), qvec(1, 0), qvec(0, 1)}


def test_spekkens_state_constraints_give_cube():
    # the effect octahedron constrains recovered states to the cube: one
    # constraint (+-w_i + 1)/2 >= 0 per rescaled octahedron vertex
    hs = []
    for i in range(3):
        for s in (1, -1):
            n = [0, 0, 0, F(1, 2)]
            n[i] = F(s, 2)
            hs.append(Halfspace(n, 0))
    hs.append(Halfspace((0, 0, 0, 1), 1))
    hs.append(Halfspace((0, 0, 0, -1), -1))
    cube = hrep_to_vrep(hs)
    expected = {
        qvec(a, b, c, 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)
    }
    assert set(cube.vertices) == expected
    # oracle: every sign pattern saturates exactly the three matching constraints
    for v in expected:
        tight = [h for h in hs[:6] if h.evaluate(v) == 0]
        assert len(tight) == 3


def test_hrep_errors():
    with pytest.raises(UnboundedError):
        hrep_to_vrep([Halfspace((1, 0), 0), Halfspace((0, 1), 0)])
    with pytest.raises(EmptyIntersectionError):
        hrep_to_vrep([Halfspace((1, 0), 1), Halfspace((-1, 0), 0),
                      Halfspace((0, 1), 0), Halfspace((0, -1), -1)])


# -- positive_cone -----------------------------------------------------------

def test_cone_of_segment():
    seg = hull_reduce([qvec(0, 1), qvec(1, 1)])
    assert set(positive_cone(seg).rays) == {qvec(0, 1), qvec(1, 1)}


def test_cone_drops_origin_vertex():
    tri = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1)])
    assert set(positive_cone(tri).rays) == {qvec(1, 0), qvec(0, 1)}


def test_effect_body_cone_vs_lp_ray_oracle():
    # transformed-bit effect body: 0, unit and the two skew midpoints; the
    # unit direction is a positive combination of the skew rays
    body = hull_reduce([
        qvec(0, 0), qvec(0, 1), qvec(F(1, 2), F(1, 2)), qvec(F(-1, 2), F(1, 2))
    ])
    oracle = cone_rays_lp(list(body.vertices))
    cone = positive_cone(body)
    assert {QVec(r) for r in cone.rays} == {qvec(1, 1), qvec(-1, 1)}
    oracle_normalized = {QVec(r * (1 / sum(abs(c) for c in r))) for r in oracle}
    cone_normalized = {QVec(r * (1 / sum(abs(c) for c in r))) for r in cone.rays}
    assert oracle_normalized == cone_normalized


# -- dual_cone ---------------------------------------------------------------

def test_orthant_self_dual():
    orthant = rays_of((1, 0), (0, 1))
    assert set_equal(dual_cone(orthant), orthant)


def test_dual_of_state_cone_sign_oracle():
    state_cone = rays_of((-1, 1), (1, 1))
    dual = dual_cone(state_cone)
    assert set(dual.rays) == {qvec(1, 1), qvec(-1, 1)}
    for d in dual.rays:
        for r in state_cone.rays:
            assert d.dot(r) >= 0  # sign check of all pairwise dot products


def test_dual_of_full_space_is_origin():
    full = rays_of((1, 0), (-1, 0), (0, 1), (0, -1))
    assert dual_cone(full).is_trivial()


def test_double_dual_is_identity():
    c = rays_of((-1, 1), (1, 1))
    assert set_equal(dual_cone(dual_cone(c)), c)


# -- intersections and slicing -----------------------------------------------

def test_orthant_intersection_is_axis_ray():
    a = rays_of((1, 0), (0, 1))
    b = rays_of((-1, 0), (0, 1))
    meet = cone_intersect(a, b)
    assert set(meet.rays) == {qvec(0, 1)}


def test_state_dual_cones_intersect_to_effect_body():
    # dual cone of the transformed-bit states, intersected with its
    # unit-shifted reflection, carves out the effect body
    state_cone = positive_cone(hull_reduce([qvec(-1, 1), qvec(1, 1)]))
    dual = dual_cone(state_cone)
    unit = qvec(0, 1)
    hs = [Halfspace(n, 0) for n in dual.halfspaces]
    shifted = [Halfspace(-n, -n.dot(unit)) for n in dual.halfspaces]
    body = hrep_to_vrep(hs + shifted)
    expected = hull_reduce([
        qvec(0, 0), qvec(0, 1), qvec(F(1, 2), F(1, 2)), qvec(F(-1, 2), F(1, 2))
    ])
    assert set_equal(body, expected)


def test_polytope_intersect():
    sq = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    tri = hull_reduce([qvec(0, 0), qvec(2, 0), qvec(0, 2)])
    meet = hrep_to_vrep(list(sq.facets) + list(tri.facets))
    assert set(meet.vertices) == {qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)}


def test_slice_state_cone_recovers_states():
    state_cone = positive_cone(hull_reduce([qvec(-1, 1), qvec(1, 1)]))
    sliced = slice_cone(state_cone, qvec(0, 1), 1)
    # oracle: scale each ray to unit last coordinate
    expected = {QVec(r * (1 / r[1])) for r in state_cone.rays}
    assert set(sliced.vertices) == expected


def test_slice_unbounded():
    halfplane = Cone([qvec(1, 0), qvec(-1, 0), qvec(0, 1)])
    with pytest.raises(UnboundedError):
        slice_cone(halfplane, qvec(0, 1), 1)


def test_slice_of_the_whole_space_is_unbounded():
    plane = Cone([qvec(1, 0), qvec(-1, 0), qvec(0, 1), qvec(0, -1)])
    with pytest.raises(UnboundedError):
        slice_cone(plane, qvec(0, 1), 1)


# -- set_equal and contains ----------------------------------------------------

def test_set_equal_vertex_permutation():
    a = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    b = hull_reduce([qvec(1, 1), qvec(0, 1), qvec(1, 0), qvec(0, 0)])
    assert set_equal(a, b)


def test_set_equal_rejects_scaling():
    a = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    b = hull_reduce([qvec(0, 0), qvec(2, 0), qvec(0, 2), qvec(2, 2)])
    assert not set_equal(a, b)


def test_set_equal_compares_every_vertex():
    # sorted vertices (0, 0), (0, 1), (1, 0): each copy moves one of them
    a = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1)])
    for moved in ([qvec(-1, 0), qvec(1, 0), qvec(0, 1)], [qvec(0, 0), qvec(1, 0), qvec(0, 2)],
                  [qvec(0, 0), qvec(2, 0), qvec(0, 1)]):
        b = hull_reduce(moved)
        assert len(set(a.vertices) & set(b.vertices)) == 2
        assert not set_equal(a, b) and not set_equal(b, a)
    assert set_equal(a, hull_reduce([qvec(F(1, 2), F(1, 2)), qvec(0, 1), qvec(1, 0), qvec(0, 0)]))


def test_contains():
    sq = hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    assert sq.contains(sq.centroid())
    states = hull_reduce([qvec(-1, 1), qvec(1, 1)])
    assert not states.contains(qvec(2, 1))


# -- roundtrip property --------------------------------------------------------

def test_vh_roundtrip_random_polytopes():
    gen = random.Random(11)
    for _ in range(40):
        dim = gen.choice([2, 2, 3, 3, 4])
        pts = [
            qvec(*[F(gen.randint(-8, 8), gen.randint(1, 4)) for _ in range(dim)])
            for _ in range(gen.randint(dim + 1, 12))
        ]
        p = hull_reduce(pts)
        assert set_equal(hrep_to_vrep(vrep_to_hrep(p)), p)
        # LP oracle agrees on the vertex set
        assert sorted(hull_vertices_lp(pts)) == sorted(p.vertices)


def test_lp_oracle_membership_consistency():
    gen = random.Random(13)
    pts = [qvec(*[F(gen.randint(-4, 4), gen.randint(1, 3)) for _ in range(3)])
           for _ in range(8)]
    p = hull_reduce(pts)
    for _ in range(30):
        probe = qvec(*[F(gen.randint(-5, 5), gen.randint(1, 3)) for _ in range(3)])
        assert p.contains(probe) == in_convex_hull(probe, pts)
        assert positive_cone(p).contains(probe) == in_cone(probe, list(p.vertices))
