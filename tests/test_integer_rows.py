"""Integer rows inside, Fractions at the edge: the one exact sort of the
kernel's results (``geometry._vertex_order``), the dedupe of hull inputs on
integer rows, the type of every coordinate the bodies hand out, and the
primitive row each body keeps for each vertex."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gptgeom import geometry
from gptgeom.geometry import Cone, Halfspace, hrep_to_vrep, hull_reduce
from gptgeom.linalg import QVec, as_integers, qvec
from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize
from gptgeom.systems import states_from_effects, unrestricted_effects

F = Fraction

# values a + b / (2^66 + d) with b in 0..3 share the floor key a 2^64 + 0
_NEAR_TIES = st.builds(lambda a, b, d: a + F(b, 2 ** 66 + d),
                       st.integers(-2, 2), st.integers(-8, 8), st.integers(0, 3))
_COORDS = st.one_of(st.fractions(max_denominator=12), st.integers(-3, 3).map(F), _NEAR_TIES)


@st.composite
def _rows_and_points(draw):
    dim = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[_COORDS] * dim), min_size=1, max_size=12, unique=True))
    rows = []
    for p in pts:
        x, s = as_integers(p)
        k = draw(st.integers(1, 3))  # the order reads x / s, primitive or not
        rows.append(tuple(k * v for v in x) + (k * s,))
    return rows, pts


@settings(max_examples=300)
@given(_rows_and_points())
def test_vertex_order_is_the_fraction_sort(case):
    rows, pts = case
    # every other row maps to a given QVec, which is handed back as it is
    given = {r: QVec(p) if i % 2 else None for i, (r, p) in enumerate(zip(rows, pts))}
    ordered = geometry._vertex_order(given)
    assert [v for _, v in ordered] == sorted(pts)
    for r, v in ordered:
        assert type(v) is QVec and all(type(c) is Fraction for c in v)
        assert v == tuple(F(x, r[-1]) for x in r[:-1])
        assert given[r] is None or v is given[r]


def test_vertex_order_breaks_floor_ties_exactly():
    tiny = 2 ** 70
    pts = [(F(-1, tiny),), (F(0),), (F(1, tiny),), (F(2, tiny),), (F(-2, tiny),)]
    rows = [tuple(as_integers(p)[0]) + (as_integers(p)[1],) for p in pts]
    assert [v for _, v in geometry._vertex_order(dict.fromkeys(rows))] == sorted(pts)


def test_hull_reduce_dedupes_ints_fractions_and_strings():
    body = hull_reduce([(1, 0), (F(1), F(0)), ("2/2", "0/4"), (0, 0), ("0", 0),
                        ("2/4", 1), (F(1, 2), 1), qvec("1/2", 1)])
    assert body.vertices == (qvec(0, 0), qvec("1/2", 1), qvec(1, 0))
    assert all(type(c) is Fraction for v in body.vertices for c in v)


def _assert_fraction_coordinates(body):
    assert len(body.rows) == len(body.vertices)
    for v, r in zip(body.vertices, body.rows):
        assert type(v) is QVec and all(type(c) is Fraction for c in v)
        x, s = as_integers(v)  # the primitive row (x, s) of v, s > 0
        assert r == (*x, s)
    for h in body.facets:
        assert all(type(c) is Fraction for c in h.normal) and type(h.offset) is Fraction


def _assert_system_coordinates(sys):
    for body in (sys.states.polytope, sys.effects.polytope,
                 unrestricted_effects(sys.states), states_from_effects(sys.effects)):
        _assert_fraction_coordinates(body)


def test_every_coordinate_is_a_fraction(gallery_systems, random_systems):
    for _, sys in gallery_systems:
        _assert_system_coordinates(sys)
    for sys in random_systems:
        _assert_system_coordinates(sys)
    for n in range(3, 18):
        for family in (Rebit(), NoisyRebit(F(1, 2)), NoisyRebit(F(29, 64)), AnuBit()):
            _assert_system_coordinates(discretize(family, n).system)


def test_cones_and_vertex_enumeration_hand_out_fractions():
    cone = Cone([qvec(1, 0, 0), qvec(0, 1, 0), qvec(1, 1, 1), qvec(0, 0, 1), (1, 1, 0)])
    line = Cone([(1, 0), (-1, 0)])
    for c in (cone, line, geometry.dual_cone(cone)):
        for vec in c.rays + tuple(c.halfspaces):
            assert type(vec) is QVec and all(type(x) is Fraction for x in vec)
    box = hrep_to_vrep([Halfspace((1, 0), 0), Halfspace((-1, 0), "-3/2"),
                        Halfspace((0, 2), 1), Halfspace(("-1/3", -1), -1)])
    _assert_fraction_coordinates(box)


def test_recovered_states_match_the_hull_of_scaled_normals(gallery_systems, random_systems):
    # W(E) from the integer rows (su a, iu.a) against the Fraction points a / (u.a)
    for sys in [s for _, s in gallery_systems] + random_systems:
        normals = [h.inormal for h in sys.effects.polytope.facets if h.ioffset == 0]
        expected = hull_reduce([QVec(a) * (1 / sys.unit.dot(a)) for a in normals])
        assert states_from_effects(sys.effects).vertices == expected.vertices
