"""Cross-checks of independent computation routes and degenerate-input
stress tests for the enumeration core."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gptgeom.gallery import polytopic_entries
from gptgeom.geometry import (
    Cone,
    EmptyIntersectionError,
    Halfspace,
    Polytope,
    UnboundedError,
    dual_cone,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
    slice_cone,
    vrep_to_hrep,
)
from gptgeom.linalg import QVec, qvec
from gptgeom.lp import hull_vertices_lp, in_convex_hull
from gptgeom.randomgen import random_system
from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize
from gptgeom.systems import (
    EffectSpace,
    Transform,
    states_from_effects,
    transform_system,
    unrestricted_effects,
)

F = Fraction


def effect_body_via_cones(states_polytope, unit):
    """Full effect body computed through the cone pipeline: the dual cone
    of the state cone, intersected with its unit-shifted reflection."""
    dual = dual_cone(positive_cone(states_polytope))
    hs = [Halfspace(n, 0) for n in dual.halfspaces]
    shifted = [Halfspace(-n, -n.dot(unit)) for n in dual.halfspaces]
    return hrep_to_vrep(hs + shifted)


def state_body_via_cones(effects_polytope, unit):
    """Recovered state body through the cone pipeline: slice the dual cone
    of the effect generators at unit weight one."""
    dual = dual_cone(Cone(effects_polytope.vertices))
    return slice_cone(dual, unit, 1)


def test_effect_map_routes_agree_on_gallery():
    for entry in polytopic_entries():
        sys = entry.gpt_system()
        direct = unrestricted_effects(sys.states)
        via_cones = effect_body_via_cones(sys.states.polytope, sys.unit)
        assert set_equal(direct, via_cones)


def test_state_map_routes_agree_on_gallery():
    for entry in polytopic_entries():
        sys = entry.gpt_system()
        direct = states_from_effects(sys.effects)
        via_cones = state_body_via_cones(sys.effects.polytope, sys.unit)
        assert set_equal(direct, via_cones)


def test_state_map_routes_agree_on_random_systems(random_systems):
    for sys in random_systems:
        direct = states_from_effects(sys.effects)
        via_cones = state_body_via_cones(sys.effects.polytope, sys.unit)
        assert set_equal(direct, via_cones)


def test_effect_map_routes_agree_on_random_states(random_systems):
    for sys in random_systems[:20]:
        direct = unrestricted_effects(sys.states)
        via_cones = effect_body_via_cones(sys.states.polytope, sys.unit)
        assert set_equal(direct, via_cones)


# -- W(E) read off cone(E) against the hull of the points a / (u.a) ---------------


def _w_by_hull(effects):
    """The hull route to W(E): one hull pass over the points a / (u.a) of
    the normals a of E's facets through 0, with the same two errors."""
    unit = effects.unit
    normals = [QVec(h.normal) for h in effects.polytope.facets if h.ioffset == 0]
    weights = [unit.dot(a) for a in normals]
    if not any(w > 0 for w in weights):
        raise EmptyIntersectionError("recovered state body is empty")
    if any(w <= 0 for w in weights):
        raise UnboundedError("recovered state body is unbounded")
    return hull_reduce([a * (1 / w) for a, w in zip(normals, weights)])


def _outcome(route, effects):
    """The body's vertices and rows, or the type of the error raised."""
    try:
        body = route(effects)
    except (EmptyIntersectionError, UnboundedError) as err:
        return type(err)
    return body.vertices, body.rows


def _assert_routes_agree(effects):
    got = _outcome(states_from_effects, effects)
    assert got == _outcome(_w_by_hull, effects)
    return got


def _rational_transform(dim):
    return Transform([[F(2, 3) if i == j else F(1, 2) if j == i + 1 else 0
                       for j in range(dim)] for i in range(dim)])


def test_w_routes_agree_on_the_gallery_and_its_images(gallery_systems):
    for _, sys in gallery_systems:
        for s in (sys, transform_system(sys, _rational_transform(sys.dim))):
            assert isinstance(_assert_routes_agree(s.effects), tuple)


def test_w_routes_agree_on_a_facet_listed_twice(gallery_systems):
    for _, sys in gallery_systems:
        body = sys.effects.polytope
        through_0 = next(h for h in body.facets if h.ioffset == 0)
        twice = EffectSpace._raw(Polytope._raw(body.vertices, body.facets + (through_0,)),
                                 sys.unit)
        assert _assert_routes_agree(twice) == _outcome(states_from_effects, sys.effects)


def test_w_routes_agree_on_the_disc_families():
    for family in (Rebit(), NoisyRebit(F(1, 2)), NoisyRebit(F(5, 7)), AnuBit()):
        for n in range(3, 18):
            vertices, _ = _assert_routes_agree(discretize(family, n).system.effects)
            assert vertices


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.booleans())
def test_w_routes_agree_on_random_systems(seed, dim, moved):
    sys = random_system(random.Random(seed), dim)
    if moved:
        sys = transform_system(sys, _rational_transform(dim))
    assert isinstance(_assert_routes_agree(sys.effects), tuple)


@settings(max_examples=150)
@given(st.integers(2, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=7),
    st.tuples(*[st.integers(-2, 2)] * dim).filter(any))))
def test_w_routes_agree_on_bodies_through_0(case):
    # any hull of 0 and a few points, with any unit: W(E), or both errors
    points, unit = case
    body = hull_reduce([QVec(p) for p in points] + [QVec((0,) * len(unit))])
    _assert_routes_agree(EffectSpace._raw(body, QVec(unit)))


def test_w_routes_raise_both_errors():
    outcomes = set()
    for points, unit in (([(1, 1), (-1, 1), (1, -1), (-1, -1)], (0, 1)),   # 0 interior
                         ([(1, 0), (0, 1)], (1, -1)),                      # u.a < 0
                         ([(1, 1, 0), (1, -1, 0)], (1, 0, 0))):            # flat
        body = hull_reduce([QVec(p) for p in points] + [QVec((0,) * len(unit))])
        outcomes.add(_assert_routes_agree(EffectSpace._raw(body, QVec(unit))))
    assert outcomes == {EmptyIntersectionError, UnboundedError}


# -- degenerate inputs -----------------------------------------------------------


def _random_hyperplane_points(gen, dim, count):
    """Rational points confined to a random affine hyperplane."""
    while True:
        normal = qvec(*[F(gen.randint(-3, 3), gen.randint(1, 2)) for _ in range(dim)])
        if not normal.is_zero():
            break
    k = next(i for i, c in enumerate(normal) if c != 0)
    offset = F(gen.randint(-2, 2))
    pts = []
    for _ in range(count):
        coords = [F(gen.randint(-4, 4), gen.randint(1, 3)) for _ in range(dim)]
        rest = sum(normal[i] * coords[i] for i in range(dim) if i != k)
        coords[k] = (offset - rest) / normal[k]
        pts.append(QVec(coords))
    return pts


def test_lower_dimensional_hulls_roundtrip():
    gen = random.Random(77)
    for _ in range(20):
        dim = gen.choice([3, 4])
        pts = _random_hyperplane_points(gen, dim, gen.randint(dim, 8))
        p = hull_reduce(pts)
        assert p.affine_dim() < dim
        assert set_equal(hrep_to_vrep(vrep_to_hrep(p)), p)
        assert sorted(hull_vertices_lp(pts)) == sorted(p.vertices)
        for probe in pts:
            assert p.contains(probe)


def test_duplicated_and_collinear_points():
    pts = [qvec(0, 0), qvec(0, 0), qvec(1, 1), qvec(2, 2), qvec(3, 3), qvec(1, 1)]
    p = hull_reduce(pts)
    assert set(p.vertices) == {qvec(0, 0), qvec(3, 3)}
    assert set_equal(hrep_to_vrep(vrep_to_hrep(p)), p)


def test_single_point_hull_and_facets():
    p = hull_reduce([qvec(F(1, 2), F(-2, 3), 1)])
    assert p.vertices == (qvec(F(1, 2), F(-2, 3), 1),)
    assert p.contains(qvec(F(1, 2), F(-2, 3), 1))
    assert not p.contains(qvec(F(1, 2), F(-2, 3), 2))


def test_coplanar_face_does_not_duplicate_facets():
    # square pyramid with an extra point in the middle of the base
    pts = [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0), qvec(-1, -1, 0),
           qvec(0, 0, 2), qvec(0, 0, 0)]
    p = hull_reduce(pts)
    assert len(p.vertices) == 5
    assert len(p.facets) == 5
    assert set_equal(hrep_to_vrep(list(p.facets)), p)


def test_cone_with_lineality_roundtrips():
    gen = random.Random(78)
    for _ in range(15):
        dim = gen.choice([2, 3])
        base = [qvec(*[F(gen.randint(-3, 3), 1) for _ in range(dim)])
                for _ in range(dim)]
        gens = [g for g in base if not g.is_zero()]
        gens += [-g for g in gens[:1]]  # force a line into the cone
        cone = Cone(gens)
        assert set_equal(dual_cone(dual_cone(cone)), cone)
        for g in gens:
            assert cone.contains(g)


def test_cone_probe_membership_vs_lp(random_systems):
    from gptgeom.lp import in_cone
    gen = random.Random(79)
    for sys in random_systems[:10]:
        cone = positive_cone(sys.effects.polytope)
        for _ in range(10):
            probe = qvec(*[F(gen.randint(-4, 4), gen.randint(1, 3))
                           for _ in range(sys.dim)])
            assert cone.contains(probe) == in_cone(probe, list(sys.effects.polytope.vertices))


def test_hull_with_interior_cloud_matches_lp(random_systems):
    gen = random.Random(80)
    for sys in random_systems[:6]:
        verts = sys.effects.polytope.vertices
        cloud = list(verts)
        for _ in range(12):
            weights = [F(gen.randint(0, 3)) for _ in verts]
            if sum(weights) == 0:
                continue
            total = sum(weights)
            acc = verts[0] * 0
            for w, v in zip(weights, verts):
                acc = acc + v * (w / total)
            cloud.append(acc)
        reduced = hull_reduce(cloud)
        assert set_equal(reduced, sys.effects.polytope)
        for probe in cloud:
            assert in_convex_hull(probe, list(verts))
