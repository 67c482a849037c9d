"""The incidence-reporting DD kernel and the paths built on it: pass counts,
the memoized E(S) and classification, self-checks that survive
``python -O``, and drawn inputs against the ``lp.py`` oracle and the
Fraction halfspace route."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptgeom import geometry, smooth, systems
from gptgeom.gallery import load
from gptgeom.geometry import (
    Halfspace,
    SelfCheckError,
    UnboundedError,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
    vrep_to_hrep,
)
from gptgeom.linalg import QVec, integerize, qvec
from gptgeom.lp import hull_vertices_lp, in_cone, in_convex_hull
from gptgeom.smooth import AnuBit, Rebit, discretize
from gptgeom.systems import (
    GptClass,
    StateSpace,
    admits_gtt,
    classify,
    decompose_in_cone,
    unrestricted_effects,
    validate_system,
)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"
DRAWN = settings(max_examples=60)


@pytest.fixture
def dd_calls(monkeypatch):
    """Count the passes that go through ``geometry._dd``."""
    calls = []
    real = geometry._dd

    def counted(normals, dim):
        calls.append(len(normals))
        return real(normals, dim)

    monkeypatch.setattr(geometry, "_dd", counted)
    return calls


# -- kernel contract ---------------------------------------------------------------


def test_dd_masks_are_the_tight_sets():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-1, 2, 1)]
    rays, lin = geometry._dd(rows, 3)
    assert not lin
    for g, mask in rays:
        for i, row in enumerate(rows):
            v = geometry._idot(g, row)
            assert v >= 0
            assert (v == 0) == bool(mask >> i & 1)


def test_dd_masks_with_lineality():
    # a wedge times a line: the masks cover every row, lin rows are tight
    rows = [(1, 0, 0), (0, 1, 0)]
    rays, lin = geometry._dd(rows, 3)
    assert len(lin) == 1 and len(rays) == 2
    assert sorted(mask for _, mask in rays) == [0b01, 0b10]


# -- pass counts -------------------------------------------------------------------


def _fresh(sys):
    """A newly validated copy: no E(S) or classification stored yet."""
    return validate_system(sys.states.polytope, sys.effects.polytope, sys.name, sys.unit)


def test_classify_makes_one_pass_then_none(dd_calls, gallery_systems):
    for name, sys in gallery_systems:
        fresh = _fresh(sys)
        del dd_calls[:]
        classify(fresh)
        assert len(dd_calls) == 1, name  # E(S)
        fresh = _fresh(sys)
        unrestricted_effects(fresh.states)
        del dd_calls[:]
        classify(fresh)
        assert dd_calls == [], name


def test_hull_reduce_makes_one_pass(dd_calls):
    inputs = [
        [qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1), qvec(F(1, 2), F(1, 2))],
        [qvec(0, 1), qvec(1, 1), qvec(F(1, 2), 1)],
        [qvec(F(1, 2), F(-2, 3), 1)],
        [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0), qvec(-1, -1, 0), qvec(0, 0, 2)],
    ]
    for pts in inputs:
        del dd_calls[:]
        p = hull_reduce(pts)
        p.facets
        p.contains(pts[0])
        assert len(dd_calls) == 1


def test_full_dimensional_hrep_keeps_facets(dd_calls):
    for name in ("bit", "squit", "spekkens"):
        sys = load(name).gpt_system()
        body = unrestricted_effects(sys.states)
        del dd_calls[:]
        body.facets
        assert body.contains(sys.unit)
        assert dd_calls == []


# -- memoized E(S) and classification --------------------------------------------


def test_discretized_system_derives_es_once(dd_calls):
    sys = discretize(Rebit(), 16).system
    del dd_calls[:]
    assert classify(sys).tag is GptClass.UNRESTRICTED
    assert admits_gtt(sys)
    assert unrestricted_effects(sys.states) == sys.effects.polytope
    assert len(dd_calls) == 1  # W(E), inside admits_gtt


def test_classification_is_stored(dd_calls, gallery_systems):
    for name, sys in gallery_systems:
        sys = _fresh(sys)
        first = classify(sys)
        del dd_calls[:]
        assert classify(sys) is first, name
        assert dd_calls == [], name


def test_admits_gtt_derives_w_on_every_call(dd_calls):
    sys = _fresh(load("spekkens").gpt_system())
    classify(sys)
    # W(E) is one hull pass with a row per facet of E through 0
    through_zero = [h for h in sys.effects.polytope.facets if h.offset == 0]
    for _ in range(2):
        del dd_calls[:]
        assert admits_gtt(sys) is False
        assert dd_calls == [len(through_zero)]


def test_admits_gtt_catches_a_wrong_stored_tag():
    sys = _fresh(load("spekkens").gpt_system())
    object.__setattr__(sys, "_classification", systems.Classification(GptClass.UNRESTRICTED))
    with pytest.raises(AssertionError):
        admits_gtt(sys)


def test_classified_system_compares_and_prints_the_same():
    sys = _fresh(load("noisy-bit").gpt_system())
    twin = systems.GptSystem(sys.states, sys.effects, sys.name)  # same parts, unclassified
    before = (hash(sys), repr(sys))
    classify(sys)
    assert sys._classification is not None and twin._classification is None
    assert sys == twin and (hash(sys), repr(sys)) == before == (hash(twin), repr(twin))


def test_effect_body_is_stored_per_state_space(dd_calls):
    sys = load("squit").gpt_system()
    states = StateSpace(sys.states.polytope)
    del dd_calls[:]
    body = unrestricted_effects(states)
    assert unrestricted_effects(states) is body and len(dd_calls) == 1
    # another state space over the same polytope derives its own
    assert unrestricted_effects(StateSpace(sys.states.polytope)) == body
    assert len(dd_calls) == 2


def test_unbounded_effect_body_is_not_stored(dd_calls):
    single = StateSpace(hull_reduce([qvec(F(1, 2), 1)]))
    del dd_calls[:]
    for _ in range(2):
        with pytest.raises(UnboundedError):
            unrestricted_effects(single)
    assert single._effect_body is None and len(dd_calls) == 2


def test_validate_checks_effect_axioms_once(monkeypatch):
    sys = load("squit").gpt_system()
    calls = []
    real = systems._effect_axioms

    def counted(polytope, unit):
        calls.append(polytope)
        return real(polytope, unit)

    monkeypatch.setattr(systems, "_effect_axioms", counted)
    validate_system(sys.states.polytope, sys.effects.polytope)
    assert len(calls) == 1


def test_validate_checks_each_axiom_once(monkeypatch):
    sys = load("squit").gpt_system()
    states = StateSpace(sys.states.polytope)
    calls = []
    for name in ("_state_axioms", "_effect_axioms", "_range_axiom"):
        real = getattr(systems, name)
        monkeypatch.setattr(systems, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    validate_system(states, sys.effects.polytope)
    assert sorted(calls) == ["_effect_axioms", "_range_axiom", "_state_axioms"]


def test_validate_reuses_the_stored_effect_body(dd_calls, gallery_systems):
    for name, sys in gallery_systems:
        expected = classify(sys)
        states = StateSpace(sys.states.polytope, sys.unit)
        unrestricted_effects(states)
        del dd_calls[:]
        fresh = validate_system(states, sys.effects.polytope, name)
        assert fresh.states is states
        assert classify(fresh) == expected and dd_calls == [], name


def test_positive_cone_membership_makes_two_passes(dd_calls):
    sys = load("spekkens").gpt_system()
    full = unrestricted_effects(sys.states)
    witness = classify(sys).witness
    del dd_calls[:]
    cone = positive_cone(sys.effects.polytope)
    assert not cone.contains(witness) and cone.contains(sys.unit)
    assert len(dd_calls) == 2  # one for the normals, one for the rays
    assert full.contains(witness)


# -- self-checks -------------------------------------------------------------------


def _negate_first_ray(real):
    def wrong(normals, dim):
        rays, lin = real(normals, dim)
        g, mask = rays[0]
        return [(tuple(-x for x in g), mask)] + rays[1:], lin
    return wrong


def test_hull_self_check_catches_a_wrong_facet(monkeypatch):
    monkeypatch.setattr(geometry, "_dd", _negate_first_ray(geometry._dd))
    with pytest.raises(SelfCheckError):
        hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])


class _MembershipThatForgets:
    """Puts the first point asked about in the cone and nothing afterwards."""

    def __init__(self):
        self.asked = 0

    def __call__(self, x, normals):
        self.asked += 1
        return self.asked == 1


class _AnuBitWithACoveredRay(AnuBit):
    def boundary_ray(self):
        return qvec(0, 1)  # inside the effect cone, so not a missing ray


def test_explicit_self_checks_raise(monkeypatch):
    sys = load("squit").gpt_system()
    with monkeypatch.context() as m:
        m.setattr(systems, "_in_cone", _MembershipThatForgets())
        with pytest.raises(SelfCheckError):
            decompose_in_cone(qvec(1, 0, 0), sys.effects)
    with pytest.raises(SelfCheckError):
        smooth.cone_nonclosure_certificate(_AnuBitWithACoveredRay(), F(1, 10))
    with monkeypatch.context() as m:
        m.setattr(smooth, "circle_point", lambda j, n: (F(1), F(0)))
        with pytest.raises(SelfCheckError):
            smooth.disc_polygon_states(8)


def test_hull_self_check_survives_optimized_mode():
    script = (
        "import sys\n"
        "from gptgeom import geometry\n"
        "from gptgeom.linalg import qvec\n"
        "if __debug__:\n"
        "    sys.exit(3)\n"
        "real = geometry._dd\n"
        "def wrong(normals, dim):\n"
        "    rays, lin = real(normals, dim)\n"
        "    g, mask = rays[0]\n"
        "    return [(tuple(-x for x in g), mask)] + rays[1:], lin\n"
        "geometry._dd = wrong\n"
        "try:\n"
        "    geometry.hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)])\n"
        "except geometry.SelfCheckError:\n"
        "    sys.exit(0)\n"
        "sys.exit(4)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- drawn inputs against independent routes ---------------------------------------

coord = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def point_sets(draw, min_points=1):
    dim = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=min_points, max_size=9))
    return [QVec(p) for p in pts]


@st.composite
def sets_with_probe(draw):
    pts = draw(point_sets())
    dim = len(pts[0])
    a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
    t = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(-1, 4), F(5, 4)]))
    probe = draw(st.one_of(
        st.just(a + (b - a) * t),  # on a segment through two input points
        st.tuples(*[coord] * dim).map(QVec),
    ))
    return pts, probe


@DRAWN
@given(point_sets())
def test_hull_vertices_match_lp(pts):
    assert sorted(hull_reduce(pts).vertices) == sorted(hull_vertices_lp(pts))


@DRAWN
@given(sets_with_probe())
def test_integer_contains_matches_fraction_and_lp(case):
    pts, probe = case
    p = hull_reduce(pts)
    inside = p.contains(probe)
    assert inside == all(h.holds(probe) for h in p.facets)
    assert inside == in_convex_hull(probe, pts)
    assert p.contains(probe, strict=True) == all(h.holds(probe, strict=True)
                                                 for h in p.facets)


@DRAWN
@given(point_sets(min_points=5), st.integers(0, 3))
def test_kept_facets_are_the_irredundant_input(pts, extra):
    p = hull_reduce(pts)
    if p.affine_dim() < p.dim:
        return
    facets = list(p.facets)
    # duplicates, rescaled copies and loosened copies are all redundant
    redundant = [Halfspace(h.normal * 2, h.offset * 2) for h in facets[:extra]]
    redundant += [Halfspace(h.normal, h.offset - 1) for h in facets[:extra]]
    q = hrep_to_vrep(redundant + facets + facets[:extra])
    assert q.vertices == p.vertices
    assert q._facets is not None
    assert set(q.facets) == set(vrep_to_hrep(p))
    assert len(q.facets) == len(set(q.facets))


def _classify_via_cones(sys):
    """The earlier route: compare the positive cones of E and E(S)."""
    es = unrestricted_effects(sys.states)
    if set_equal(sys.effects.polytope, es):
        return GptClass.UNRESTRICTED
    if set_equal(positive_cone(sys.effects.polytope), positive_cone(es)):
        return GptClass.NOISY_UNRESTRICTED
    return GptClass.NOT_ALMOST_NU


def test_two_pass_classify_matches_cone_route(fifty_seven):
    tags = set()
    for sys in fifty_seven:
        c = classify(sys)
        tags.add(c.tag)
        assert c.tag is _classify_via_cones(sys)
        if c.tag is GptClass.NOT_ALMOST_NU:
            assert c.witness in unrestricted_effects(sys.states).vertices
            assert not in_cone(c.witness, list(sys.effects.polytope.vertices))
        else:
            assert c.witness is None
    assert GptClass.NOT_ALMOST_NU in tags and len(tags) >= 2


def test_primitive_integer_halfspace():
    h = Halfspace((F(1, 2), F(-3, 4)), F(1, 4))
    assert (h.inormal, h.ioffset) == ((2, -3), 1)
    assert h.inormal + (h.ioffset,) == integerize(tuple(h.normal) + (h.offset,))
    assert h == Halfspace((2, -3), 1)
