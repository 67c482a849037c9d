"""E(S) of a polygon state space in closed form, against the DD oracle
``hrep_to_vrep(effect_constraints(S))``: the same vertex tuple and the same
kept facets, on random polygons, polygons with parallel edges, polygons
moved by a transform and the disc approximants."""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gptgeom import systems
from gptgeom.geometry import SelfCheckError, UnboundedError, hrep_to_vrep, hull_reduce
from gptgeom.linalg import SingularMatrixError, qvec
from gptgeom.randomgen import random_state_space
from gptgeom.smooth import disc_polygon_states
from gptgeom.systems import StateSpace, Transform, effect_constraints, unrestricted_effects

F = Fraction


def assert_matches_the_oracle(states):
    body = unrestricted_effects(states)
    oracle = hrep_to_vrep(effect_constraints(states))
    assert body.vertices == oracle.vertices
    assert body._facets == oracle._facets


coord = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
points = st.tuples(coord, coord)


@st.composite
def polygons(draw):
    """Vertices (x, y, 1) of a polygon: drawn points, a centrally symmetric
    hull (every edge parallel to the one opposite it) or a trapezoid."""
    kind = draw(st.sampled_from(["points", "symmetric", "trapezoid"]))
    if kind == "points":
        pts = draw(st.lists(points, min_size=3, max_size=9))
    elif kind == "symmetric":
        half = draw(st.lists(points, min_size=2, max_size=5))
        cx, cy = draw(points)
        pts = half + [(2 * cx - x, 2 * cy - y) for x, y in half]
    else:
        (ax, ay), (bx, by), (dx, dy) = draw(points), draw(points), draw(points)
        s, t = draw(coord), draw(coord)
        pts = [(ax, ay), (ax + s * dx, ay + s * dy), (bx, by), (bx + t * dx, by + t * dy)]
    body = hull_reduce([qvec(x, y, 1) for x, y in pts])
    assume(body.affine_dim() == 2)
    return body


matrices = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=3, max_size=3)


@settings(max_examples=150)
@given(polygons(), st.one_of(st.none(), matrices))
@example(hull_reduce([qvec(x, y, 1) for x in (0, 1) for y in (0, 1)]), None)  # the square
def test_closed_form_matches_the_oracle(body, matrix):
    if matrix is None:
        assert_matches_the_oracle(StateSpace(body))
        return
    try:
        t = Transform(matrix)
    except SingularMatrixError:
        assume(False)
    assume(any(matrix[i][j] != (i == j) for i in range(3) for j in range(3)))
    moved = hull_reduce([t.apply_state(w) for w in body.vertices])
    assert_matches_the_oracle(StateSpace(moved, t.apply_effect(qvec(0, 0, 1))))


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32))
def test_closed_form_matches_the_oracle_on_random_state_spaces(seed):
    assert_matches_the_oracle(random_state_space(random.Random(seed), 3))


@pytest.mark.parametrize("n", [*range(3, 18), 24, 31, 32, 64, 128])
def test_closed_form_matches_the_oracle_on_the_disc(n):
    assert_matches_the_oracle(StateSpace(disc_polygon_states(n)))


@pytest.mark.parametrize("pts", [
    [qvec(F(1, 2), 0, 1)],
    [qvec(0, 0, 1), qvec(1, 2, 1)],
])
def test_degenerate_polygon_raises_unbounded(dd_calls, pts):
    states = StateSpace(hull_reduce(pts))
    del dd_calls[:]
    with pytest.raises(UnboundedError, match="do not affinely span the unit hyperplane"):
        unrestricted_effects(states)
    assert states._effect_body is None and dd_calls == []


def test_corrupted_mask_raises(monkeypatch):
    real = systems._check_incidence

    def flipped(rays, lin, rows, *names):
        (g, mask), *rest = rays
        real([(g, mask ^ 1 << 3)] + rest, lin, rows, *names)

    monkeypatch.setattr(systems, "_check_incidence", flipped)
    with pytest.raises(SelfCheckError,
                       match=r"^homogeneous vertex \(.*\) is misplaced against Halfspace\("):
        unrestricted_effects(StateSpace(disc_polygon_states(5)))

