"""The noisy effect body pE + [0, (1 - p)u] built from E's facets and ridges,
against the cold hull of the same candidate points, and the disc
approximants that use it."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gptgeom import smooth
from gptgeom.gallery import _transformed_bit_parts
from gptgeom.geometry import Halfspace, Polytope, SelfCheckError, hull_reduce
from gptgeom.linalg import QVec, qvec, zero_vector
from gptgeom.randomgen import random_state_space
from gptgeom.smooth import NoisyRebit, Rebit, disc_polygon_states, discretize
from gptgeom.systems import StateSpace, noisy_effects, unrestricted_effects

F = Fraction


def cold_hull(full, unit, p):
    """The oracle: one hull pass over 0, u, p.e and u - p.e."""
    scaled = [e * p for e in full.vertices if not e.is_zero() and e != unit]
    return hull_reduce([zero_vector(len(unit)), unit] + scaled + [unit - e for e in scaled])


def assert_same_body(full, unit, p):
    body, oracle = noisy_effects(full, unit, p), cold_hull(full, unit, p)
    assert body.vertices == oracle.vertices
    assert len(body.facets) == len(set(body.facets))
    assert set(body.facets) == set(oracle.facets)


efficiencies = st.tuples(st.integers(1, 12), st.integers(1, 12)).map(
    lambda ab: F(min(ab), max(ab)))  # (0, 1], p = 1 included


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32), st.integers(2, 5), efficiencies)
@example(seed=5, dim=4, p=F(1))
def test_noisy_body_matches_the_cold_hull(seed, dim, p):
    states = random_state_space(random.Random(seed), dim)
    assert_same_body(unrestricted_effects(states), states.unit, p)


@pytest.mark.parametrize("n", [*range(3, 13), 16, 31, 32, 64, 128])
def test_noisy_rebit_bodies_match_the_cold_hull(n):
    states = StateSpace(disc_polygon_states(n))
    full = unrestricted_effects(states)
    for p in ((F(1, 3), F(1, 2), F(31, 64), F(5, 7), F(1)) if n <= 32 else (F(1, 2),)):
        assert_same_body(full, states.unit, p)


def test_noisy_bit_bodies_match_the_cold_hull():
    _, full, unit = _transformed_bit_parts()
    for p in (F(1, 3), F(1, 2), F(5, 7), F(1)):
        assert_same_body(full, unit, p)


def test_noisy_body_of_a_body_whose_facets_meet_in_squares():
    # octahedron x square, moved so a vertex v0 is at 0 and u = -2 v0: the
    # facets of the sign patterns (+, +, +) and (-, -, +) meet in the square
    # {e3} x square, 4 = dim - 1 vertices that two more facets pass through
    octahedron = [qvec(*(s if j == i else 0 for j in range(3))) for i in range(3)
                  for s in (1, -1)]
    body = [QVec((*o, a, b)) for o in octahedron for a in (1, -1) for b in (1, -1)]
    v0 = body[0]
    full = hull_reduce([v - v0 for v in body])
    for p in (F(1, 2), F(1, 3), F(1)):
        assert_same_body(full, v0 * -2, p)


def test_noisy_body_needs_a_complement_closed_spanning_body():
    unit = qvec(0, 1)
    with pytest.raises(ValueError, match="complement"):
        noisy_effects(hull_reduce([qvec(0, 0), unit, qvec(1, 1)]), unit, F(1, 2))
    with pytest.raises(ValueError, match="span"):
        noisy_effects(hull_reduce([qvec(0, 0), unit]), unit, F(1, 2))


def test_noisy_body_checks_every_candidate_against_every_facet():
    # a facet through 0 tilted away from one of its vertices v: 0 and u stay
    # inside, but v and its copy p.v fall outside
    states = StateSpace(disc_polygon_states(5))
    full = unrestricted_effects(states)
    k, h = next((k, h) for k, h in enumerate(full.facets) if h.offset == 0)
    v = next(v for v in full.vertices if not v.is_zero() and h.evaluate(v) == 0)
    facets = list(full.facets)
    facets[k] = Halfspace(h.normal - v * F(1, 100), 0)
    with pytest.raises(SelfCheckError, match=r"^facet \(.*\) misplaces input point QVec\("):
        noisy_effects(Polytope._raw(full.vertices, tuple(facets)), states.unit, F(1, 2))


@pytest.mark.parametrize("family", [Rebit(), NoisyRebit(F(1, 2)), NoisyRebit(F(1))])
def test_discretize_makes_one_pass(dd_calls, family):
    for n in (3, 16, 64):
        del dd_calls[:]
        system = discretize(family, n).system
        assert dd_calls == []  # E(S) of a polygon is in closed form
        assert system.states.contains(system.unit)
        assert dd_calls == [n]  # the polygon's facets, derived when read


def test_polygon_points_must_lie_on_the_circle(monkeypatch):
    on_circle = smooth._circle_row

    def halved(j, m):
        # a distinct point inside the disc would be kept as a vertex it is not
        a, b, c, _ = on_circle(j, m)
        return (a, b, 2 * c, 2 * c) if j == 1 else (a, b, c, c)

    monkeypatch.setattr(smooth, "_circle_row", halved)
    with pytest.raises(SelfCheckError, match="off the circle"):
        disc_polygon_states(8)
