"""Smooth families: exact quadratic membership, classification with
certificates, and the polygon bridge to the exact backend."""
import hashlib
from fractions import Fraction

import pytest

from gptgeom.linalg import DimensionMismatchError, qvec
from gptgeom.observables import Observable, noisy_observable
from gptgeom.smooth import (
    AnuBit,
    NoisyRebit,
    Rebit,
    circle_point,
    cone_nonclosure_certificate,
    disc_polygon_states,
    discretize,
    membership,
    polygon_vertex_error,
    smooth_classify,
)
from gptgeom.systems import GptClass

F = Fraction


def ring_effect(j, m):
    """Exact rational point on the extremal effect ring at angle 2*pi*j/m."""
    x, y = circle_point(j, m)
    return qvec(x / 2, y / 2, F(1, 2))


# -- membership oracles --------------------------------------------------------

def test_rebit_effect_membership_examples():
    r = Rebit()
    assert membership(r, qvec(0, 0, 0), "effects")
    assert membership(r, qvec(F(1, 2), 0, F(1, 2)), "effects")
    assert not membership(r, qvec(F(3, 5), 0, F(1, 2)), "effects")  # (3/5)^2 > 1/4


def test_rebit_state_membership():
    r = Rebit()
    assert membership(r, qvec(F(3, 5), F(4, 5), 1), "states")
    assert not membership(r, qvec(1, 1, 1), "states")
    assert not membership(r, qvec(0, 0, 2), "states")


def test_membership_dimension_check():
    with pytest.raises(DimensionMismatchError):
        membership(Rebit(), qvec(0, 0), "states")


def test_noisy_rebit_scaling_law():
    p = F(1, 2)
    noisy = NoisyRebit(p)
    for j, m in ((0, 1), (1, 8), (3, 8), (5, 12)):
        e = ring_effect(j, m)
        assert membership(noisy, e * p, "effects")
        assert not membership(noisy, e, "effects")


def test_noisy_rebit_complement_ring():
    p = F(1, 3)
    noisy = NoisyRebit(p)
    u = qvec(0, 0, 1)
    e = ring_effect(1, 8)
    top = u - e * p
    # lands on the complement ring: radius p/2 at height 1 - p/2
    assert top[0] ** 2 + top[1] ** 2 == (p / 2) ** 2
    assert top[2] == 1 - p / 2
    assert membership(noisy, top, "effects")


def test_noisy_observable_outcomes_stay_members():
    p = F(2, 5)
    noisy = NoisyRebit(p)
    u = qvec(0, 0, 1)
    for j, m in ((1, 8), (2, 5), (7, 12)):
        e = ring_effect(j, m)
        obs = noisy_observable(Observable([e, u - e]), p)
        for outcome in obs.outcomes:
            assert membership(noisy, outcome, "effects")


def test_anu_membership():
    anu = AnuBit()
    assert membership(anu, qvec(0, 0), "effects")
    assert membership(anu, qvec(0, 1), "effects")
    assert membership(anu, qvec(0, F(1, 2)), "effects")
    assert not membership(anu, qvec(F(1, 2), F(1, 2)), "effects")  # lens is thinner
    assert membership(anu, qvec(F(1, 5), F(2, 5)), "effects")      # on one circle
    assert membership(anu, qvec(-1, 1), "states")
    assert not membership(anu, qvec(2, 1), "states")


def test_anu_complement_closure():
    anu = AnuBit()
    u = qvec(0, 1)
    for e in (qvec(F(1, 5), F(2, 5)), qvec(0, F(1, 4)), qvec(F(-1, 5), F(3, 5))):
        assert membership(anu, e, "effects")
        assert membership(anu, u - e, "effects")


# -- classification ----------------------------------------------------------------

def test_smooth_classifications():
    assert smooth_classify(Rebit()).tag is GptClass.UNRESTRICTED
    noisy = smooth_classify(NoisyRebit(F(1, 2)))
    assert noisy.tag is GptClass.NOISY_UNRESTRICTED
    assert noisy.certificate == F(1, 2)
    assert smooth_classify(NoisyRebit(1)).tag is GptClass.UNRESTRICTED
    anu = smooth_classify(AnuBit())
    assert anu.tag is GptClass.ALMOST_NU_ONLY
    assert anu.certificate.verify(AnuBit())


def test_cone_nonclosure_certificates():
    anu = AnuBit()
    for delta in (F(1, 100), F(1, 10 ** 4), F(1, 10 ** 6)):
        cert = cone_nonclosure_certificate(anu, delta)
        assert cert.verify(anu)
        a, b = cert.effect
        assert a * a + b * b < delta * delta
        assert not anu.effect_cone_contains(cert.boundary_ray)


def test_anu_cone_is_open_between_the_rays():
    anu = AnuBit()
    assert anu.effect_cone_contains(qvec(0, 0))
    assert anu.effect_cone_contains(qvec(1, 2))
    assert anu.effect_cone_contains(qvec(-3, 4))
    assert not anu.effect_cone_contains(qvec(1, 1))
    assert not anu.effect_cone_contains(qvec(-1, 1))
    assert not anu.effect_cone_contains(qvec(0, -1))


# -- discretization ----------------------------------------------------------------

def test_square_discretization_is_exact():
    ds = discretize(Rebit(), 4)
    assert set(ds.system.states.polytope.vertices) == {
        qvec(1, 0, 1), qvec(0, 1, 1), qvec(-1, 0, 1), qvec(0, -1, 1)
    }
    assert ds.classify().tag is GptClass.UNRESTRICTED


def test_disc_polygons_classify_unrestricted():
    previous_eps = None
    for n in (8, 16, 64):
        ds = discretize(Rebit(), n)
        assert ds.classify().tag is GptClass.UNRESTRICTED
        assert ds.vertex_error > 0
        if previous_eps is not None:
            assert ds.vertex_error < previous_eps
        previous_eps = ds.vertex_error


def test_noisy_disc_polygons_classify_noisy():
    for n in (8, 64):
        ds = discretize(NoisyRebit(F(1, 2)), n)
        assert ds.classify().tag is GptClass.NOISY_UNRESTRICTED


def test_anu_discretization_loses_the_open_cone():
    # any polygonal shadow has a closed cone strictly inside the bit cone
    ds = discretize(AnuBit(), 12)
    assert ds.classify().tag is GptClass.NOT_ALMOST_NU


def test_polygon_states_on_circle_and_nested():
    r = Rebit()
    previous = None
    for n in (4, 8, 16, 32):
        poly = disc_polygon_states(n)
        assert len(poly.vertices) == n
        for v in poly.vertices:
            assert membership(r, v, "states")
            assert v[0] ** 2 + v[1] ** 2 == 1  # exactly on the circle
        if previous is not None:
            assert set(previous.vertices) <= set(poly.vertices)
            assert all(poly.contains(v) for v in previous.vertices)
        previous = poly


def test_vertex_error_bound_decreasing():
    eps = [polygon_vertex_error(n) for n in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_discretized_noisy_body_covers_scaled_ring():
    # inscribed states make the polygon's effect body an outer approximation,
    # so every scaled ring effect of the smooth model is a member of it
    p = F(1, 2)
    ds = discretize(NoisyRebit(p), 16)
    body = ds.system.effects.polytope
    u = qvec(0, 0, 1)
    for j, m in ((0, 1), (1, 16), (1, 12), (3, 7)):
        e = ring_effect(j, m)
        assert body.contains(e * p)
        assert body.contains(u - e * p)


def test_discretize_needs_three_vertices_for_every_family():
    for family in (Rebit(), NoisyRebit(F(1, 2)), AnuBit()):
        for n in (-3, 0, 1, 2):
            with pytest.raises(ValueError, match="at least 3 vertices"):
                discretize(family, n)


def test_circle_points_are_pinned():
    """Every canonical circle point of the m-gons in use, as the float
    tangent rounding gives them; an exact replacement must keep them."""
    h = hashlib.sha256()
    for m in list(range(3, 65)) + [96, 128, 256, 512, 1024]:
        for j in range(m):
            x, y = circle_point(j, m)
            h.update(f"{j}/{m}:{x},{y};".encode())
    assert h.hexdigest() == "e5aa2bf49374f6907e7cbfc7827633fea242d1df39e266f87ada6b6132dfcb2e"
