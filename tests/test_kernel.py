"""The incidence-reporting DD kernel and the paths built on it: pass counts,
the memoized E(S) and classification, self-checks that survive
``python -O``, and drawn inputs against the ``lp.py`` oracle and the
Fraction halfspace route."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gptgeom import geometry, randomgen, smooth, systems
from gptgeom.gallery import load
from gptgeom.geometry import (
    Halfspace,
    Polytope,
    SelfCheckError,
    UnboundedError,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
    vrep_to_hrep,
)
from gptgeom.linalg import DimensionMismatchError, ExactArithmeticError, QVec, integerize, qvec
from gptgeom.lp import hull_vertices_lp, in_cone, in_convex_hull
from gptgeom.randomgen import random_state_space, random_system
from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize
from gptgeom.systems import (
    GptClass,
    StateSpace,
    admits_gtt,
    classify,
    decompose_in_cone,
    effect_constraints,
    unrestricted_effects,
    validate_system,
)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"
DRAWN = settings(max_examples=60)


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
        # E(S), in closed form when S is a polygon
        assert len(dd_calls) == (0 if sys.dim == 3 else 1), name
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
    assert dd_calls == []  # W(E), inside admits_gtt, is read off E's facets


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
    # W(E) is re-derived on each call, from E's facets through 0 with no DD pass
    for _ in range(2):
        del dd_calls[:]
        assert admits_gtt(sys) is False
        assert dd_calls == []


def test_admits_gtt_catches_a_wrong_stored_tag():
    sys = _fresh(load("spekkens").gpt_system())
    object.__setattr__(sys, "_classification", systems.Classification(GptClass.UNRESTRICTED))
    with pytest.raises(SelfCheckError):
        admits_gtt(sys)


def _with_extra_normal(effects, combine):
    """E's vertices and kept facets plus a facet through 0 whose normal is
    combine(a1, a2) of E's first two normals through 0."""
    a1, a2 = [h.inormal for h in effects.polytope.facets if h.ioffset == 0][:2]
    extra = geometry._iprim(tuple(map(combine, a1, a2)))
    body = Polytope._raw(effects.polytope.vertices,
                         effects.polytope.facets + (Halfspace._from_ints(extra, 0),))
    return systems.EffectSpace._raw(body, effects.unit), extra


@pytest.mark.parametrize("name", ["spekkens", "squit", "bit", "noisy-bit"])
def test_w_proof_rejects_a_redundant_or_invalid_normal(name):
    effects = load(name).gpt_system().effects
    redundant, _ = _with_extra_normal(effects, lambda x, y: x + y)
    with pytest.raises(SelfCheckError):
        systems.states_from_effects(redundant)
    invalid, normal = _with_extra_normal(effects, lambda x, y: 3 * x - y)
    assert any(geometry._idot(normal, r[:-1]) < 0 for r in effects.polytope.rows)
    with pytest.raises(SelfCheckError):
        systems.states_from_effects(invalid)


def test_w_proof_rejects_a_vertex_reported_on_the_wrong_side(monkeypatch):
    # the true masks, with the first vertex's product pass marked invalid
    real = systems._packed_incidence

    def first_invalid(rows, vectors):
        (_, mask), *rest = real(rows, vectors)
        return iter([(False, mask)] + rest)

    monkeypatch.setattr(systems, "_packed_incidence", first_invalid)
    with pytest.raises(SelfCheckError):
        systems.states_from_effects(load("squit").gpt_system().effects)


def test_classified_system_compares_and_prints_the_same():
    sys = _fresh(load("noisy-bit").gpt_system())
    twin = systems.GptSystem(sys.states, sys.effects, sys.name)  # same parts, unclassified
    before = (hash(sys), repr(sys))
    classify(sys)
    assert sys._classification is not None and twin._classification is None
    assert sys == twin and (hash(sys), repr(sys)) == before == (hash(twin), repr(twin))


def test_effect_body_is_stored_per_state_space(dd_calls):
    sys = load("spekkens").gpt_system()  # dimension 4: E(S) is a DD pass
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
    # from a polytope, the state space is built without a second state check
    del calls[:]
    validate_system(sys.states.polytope, sys.effects.polytope)
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


def _flip_first_mask(real):
    def wrong(normals, dim):
        rays, lin = real(normals, dim)
        g, mask = rays[0]
        return [(g, mask ^ 1)] + rays[1:], lin
    return wrong


_UNIT_SQUARE = [Halfspace(qvec(1, 0), 0), Halfspace(qvec(-1, 0), -1),
                Halfspace(qvec(0, 1), 0), Halfspace(qvec(0, -1), -1)]


def test_hrep_and_cone_prove_every_mask(monkeypatch):
    # the square keeps its four rows as facets: no hull pass reads any mask
    assert hrep_to_vrep(_UNIT_SQUARE)._facets == tuple(_UNIT_SQUARE)

    def no_hull(pts, dim):
        raise AssertionError("a hull pass")

    monkeypatch.setattr(geometry, "_hull", no_hull)
    real = geometry._dd
    monkeypatch.setattr(geometry, "_dd", _flip_first_mask(real))
    # the rows in sorted order: -x >= -1 first, the homogenization s >= 0 third
    with pytest.raises(SelfCheckError) as err:
        hrep_to_vrep(_UNIT_SQUARE)
    assert str(err.value) == ("homogeneous vertex (1, 1, 1) is misplaced against "
                              "Halfspace((-1, 0) . x >= -1)")
    with pytest.raises(SelfCheckError, match=r"^generator \(1, -1\) is misplaced against "
                                             r"normal QVec\(1, 0\)$"):
        geometry.Cone([qvec(1, 0), qvec(1, 1)])
    monkeypatch.setattr(geometry, "_dd", _flip_mask_bit(real, 2))
    with pytest.raises(SelfCheckError,
                       match=r"^homogeneous vertex .* is misplaced against s >= 0$"):
        hrep_to_vrep(_UNIT_SQUARE)


def _flip_mask_bit(real, bit):
    def wrong(normals, dim):
        rays, lin = real(normals, dim)
        g, mask = rays[0]
        return [(g, mask ^ 1 << bit)] + rays[1:], lin
    return wrong


def test_incidence_proof_is_plain_below_the_threshold_and_packed_above(monkeypatch):
    packed = []
    real_packed = geometry._packed_incidence

    def counted(rows, vectors):
        packed.append(len(rows))
        return real_packed(rows, vectors)

    monkeypatch.setattr(geometry, "_packed_incidence", counted)
    small = [qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)]
    large = list(smooth.disc_polygon_states(geometry._PACKED_ROWS + 4).vertices)
    for points in (small, large):
        assert len(hull_reduce(points).vertices) == len(points)
    assert packed == [len(large)]  # the square's proof ran the loop alone
    monkeypatch.setattr(geometry, "_dd", _flip_first_mask(geometry._dd))
    for points in (small, large):
        with pytest.raises(SelfCheckError, match=r"^facet \(.*\) misplaces input point QVec\("):
            hull_reduce(points)
    assert packed == [len(large)] * 2


def _first_misplaced(rays, lin, rows):
    """The plain product loop: the first (facet, row index) whose product is
    negative or whose zero disagrees with the mask; "lin" when only a
    lineality vector fails; None when everything holds."""
    for g, mask in rays:
        for i, row in enumerate(rows):
            v = geometry._idot(g, row)
            if v < 0 or (v == 0) != bool(mask >> i & 1):
                return g, i
    if any(geometry._idot(l, row) for l in lin for row in rows):
        return "lin"
    return None


# a row threshold that makes every input take the packed pass, and one that makes none
BOTH_PATHS = (0, 10 ** 9)

BIG = 2 ** 300
entries = st.one_of(st.integers(-BIG, BIG), st.sampled_from([0, 1, -1, BIG, -BIG, BIG - 1]))


@st.composite
def incidence_cases(draw):
    """Rows (lifted points: the last entry is nonnegative), the DD pair of
    their cone of valid inequalities, and on most draws one mutant: a mask
    bit flipped, a facet coordinate moved by one, or a nonzero vector
    in the lineality."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40 if dim <= 4 else 12))
    rows = [tuple(draw(entries) for _ in range(dim - 1)) + (draw(st.integers(0, BIG)),)
            for _ in range(n)]
    rays, lin = geometry._dd(rows, dim)
    kind = draw(st.sampled_from(["none", "mask", "coord", "lin"]))
    if kind in ("mask", "coord") and rays:
        k = draw(st.integers(0, len(rays) - 1))
        g, mask = rays[k]
        if kind == "mask":
            rays[k] = (g, mask ^ 1 << draw(st.integers(0, n - 1)))
        else:
            j = draw(st.integers(0, dim - 1))
            g = list(g)
            g[j] += draw(st.sampled_from([1, -1]))
            rays[k] = (tuple(g), mask)
    elif kind == "lin":
        extra = tuple(draw(entries) for _ in range(dim))
        if any(extra):
            lin = lin + [extra]
    return rays, lin, rows


@settings(max_examples=300)
@given(incidence_cases())
def test_packed_incidence_check_matches_the_product_loop(case):
    rays, lin, rows = case
    names = [f"p{i}" for i in range(len(rows))]
    expected = _first_misplaced(rays, lin, rows)
    for threshold in BOTH_PATHS:
        with mock.patch.object(geometry, "_PACKED_ROWS", threshold):
            if expected is None:
                geometry._check_incidence(rays, lin, rows, names)
                continue
            with pytest.raises(SelfCheckError) as err:
                geometry._check_incidence(rays, lin, rows, names)
        if expected == "lin":
            assert str(err.value) == "an affine-hull equation fails on an input point"
        else:
            g, i = expected
            assert str(err.value) == f"facet {g} misplaces input point p{i}"


def test_packed_incidence_check_at_the_width_bound():
    # products of size D R G, the bound the field width is chosen for, each
    # way round, for every row length and entry sizes across byte edges, on
    # the packed pass and on the plain loop
    for dim in range(1, 9):
        for bits in range(1, 40, 3):
            r, g = 2 ** bits - 1, 2 ** (bits + 5) - 1
            for rows in ([(r,) * dim, (1,) * dim], [(r,) * dim, (-r,) * dim]):
                for sign in (1, -1):
                    ray = tuple(sign * g for _ in range(dim))
                    mask = sum(1 << i for i, row in enumerate(rows)
                               if geometry._idot(ray, row) == 0)
                    case = ([(ray, mask)], [], rows)
                    for threshold in BOTH_PATHS:
                        with mock.patch.object(geometry, "_PACKED_ROWS", threshold):
                            if _first_misplaced(*case) is None:
                                geometry._check_incidence(*case, rows)
                            else:
                                with pytest.raises(SelfCheckError):
                                    geometry._check_incidence(*case, rows)


class _MembershipThatForgets:
    """Puts the first point asked about in the cone and nothing afterwards."""

    def __init__(self):
        self.asked = 0

    def __call__(self, normals, points):
        for _ in points:
            self.asked += 1
            yield self.asked == 1


class _AnuBitWithACoveredRay(AnuBit):
    def boundary_ray(self):
        return qvec(0, 1)  # inside the effect cone, so not a missing ray


def test_explicit_self_checks_raise(monkeypatch):
    sys = load("squit").gpt_system()
    with monkeypatch.context() as m:
        m.setattr(systems, "_packed_signs", _MembershipThatForgets())
        with pytest.raises(SelfCheckError):
            decompose_in_cone(qvec(1, 0, 0), sys.effects)
    with pytest.raises(SelfCheckError):
        smooth.cone_nonclosure_certificate(_AnuBitWithACoveredRay(), F(1, 10))
    with monkeypatch.context() as m:
        m.setattr(smooth, "_circle_row", lambda j, n: (1, 0, 1, 1))
        with pytest.raises(SelfCheckError):
            smooth.disc_polygon_states(8)


def test_hull_self_check_survives_optimized_mode():
    script = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from gptgeom import geometry, smooth, systems\n"
        "from gptgeom.linalg import qvec\n"
        "if __debug__:\n"
        "    sys.exit(3)\n"
        "real = geometry._dd\n"
        "def wrong(normals, dim):\n"
        "    rays, lin = real(normals, dim)\n"
        "    g, mask = rays[0]\n"
        "    return [(tuple(-x for x in g), mask)] + rays[1:], lin\n"
        "def fails(call, error=geometry.SelfCheckError):\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        return True\n"
        "    return False\n"
        "geometry._dd = wrong\n"
        "square = [qvec(0, 0), qvec(1, 0), qvec(0, 1), qvec(1, 1)]\n"
        "if not fails(lambda: geometry.hull_reduce(square)):\n"
        "    sys.exit(4)\n"
        "box = [geometry.Halfspace(qvec(1, 0), 0), geometry.Halfspace(qvec(-1, 0), -1),\n"
        "       geometry.Halfspace(qvec(0, 1), 0), geometry.Halfspace(qvec(0, -1), -1)]\n"
        "if not fails(lambda: geometry.hrep_to_vrep(box)):\n"
        "    sys.exit(9)\n"
        "if not fails(lambda: geometry.Cone([qvec(1, 0), qvec(1, 1)])):\n"
        "    sys.exit(10)\n"
        "geometry._dd = real\n"
        "# the bit's E(S) with its facet through 0 and v tilted away from v\n"
        "u, v = qvec(0, 1), qvec(F(1, 2), F(1, 2))\n"
        "full = geometry.hull_reduce([qvec(0, 0), u, v, u - v])\n"
        "tilted = tuple(geometry.Halfspace(h.normal - v * F(1, 100), 0)\n"
        "               if h.offset == 0 and h.evaluate(v) == 0 else h for h in full.facets)\n"
        "noisy = systems.noisy_effects\n"
        "if not fails(lambda: noisy(geometry.Polytope._raw(full.vertices, tilted), u, F(1, 2))):\n"
        "    sys.exit(5)\n"
        "if not fails(lambda: noisy(geometry.hull_reduce([qvec(0, 0), u, v]), u, F(1, 2)),\n"
        "             ValueError):\n"
        "    sys.exit(6)\n"
        "# the polygon's closed-form E(S) with one mask bit flipped\n"
        "check = systems._check_incidence\n"
        "systems._check_incidence = lambda rays, lin, rows, *names: check(\n"
        "    [(rays[0][0], rays[0][1] ^ 1)] + rays[1:], lin, rows, *names)\n"
        "pentagon = systems.StateSpace(smooth.disc_polygon_states(5))\n"
        "if not fails(lambda: systems.unrestricted_effects(pentagon)):\n"
        "    sys.exit(8)\n"
        "systems._check_incidence = check\n"
        "smooth._circle_row = lambda j, m: (1, 0, 2 + j, 2 + j)\n"
        "if not fails(lambda: smooth.disc_polygon_states(5)):\n"
        "    sys.exit(7)\n"
        "# W(E) of the bit with a redundant normal a1 + a2 through 0\n"
        "a1, a2 = [h.inormal for h in full.facets if h.ioffset == 0]\n"
        "extra = geometry.Halfspace(qvec(*a1) + qvec(*a2), 0)\n"
        "redundant = geometry.Polytope._raw(full.vertices, full.facets + (extra,))\n"
        "if not fails(lambda: systems.states_from_effects(systems.EffectSpace._raw(redundant, u))):\n"
        "    sys.exit(11)\n"
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


# -- lexicographic row order in hrep_to_vrep ---------------------------------------

_DEGENERATE = [
    # octahedron: four facets through every vertex
    [qvec(1, 0, 0), qvec(-1, 0, 0), qvec(0, 1, 0), qvec(0, -1, 0), qvec(0, 0, 1),
     qvec(0, 0, -1)],
    # square pyramid: four facets through the apex
    [qvec(1, 1, 0), qvec(1, -1, 0), qvec(-1, 1, 0), qvec(-1, -1, 0), qvec(0, 0, 2)],
    # 4-dimensional cross polytope: eight facets through every vertex
    [qvec(*(s if j == i else 0 for j in range(4))) for i in range(4) for s in (1, -1)],
]


@st.composite
def halfspace_lists(draw):
    """A halfspace list around the facets of a hull (drawn points, or one
    of the degenerate bodies above) and one shuffle of it.  Duplicates,
    rescaled and loosened copies are added; on some draws facets are
    dropped (maybe unbounded), a cut through the centroid adds new
    vertices, or a reversed facet moved past the body empties it."""
    pts = draw(st.one_of(point_sets(min_points=4), st.sampled_from(_DEGENERATE)))
    p = hull_reduce(pts)
    hs = list(p.facets)
    copies = st.sampled_from(hs)
    hs += draw(st.lists(copies, max_size=3))
    hs += [Halfspace(h.normal * r, h.offset * r)
           for h, r in draw(st.lists(st.tuples(copies, st.sampled_from([F(2), F(1, 3)])),
                                     max_size=3))]
    hs += [Halfspace(h.normal, h.offset - t)
           for h, t in draw(st.lists(st.tuples(copies, st.sampled_from([F(1, 2), F(1)])),
                                     max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        if len(hs) > 1:
            hs.pop(draw(st.integers(0, len(hs) - 1)))
    normal = QVec(draw(st.tuples(*[coord] * p.dim)))
    if draw(st.booleans()) and not normal.is_zero():
        hs.append(Halfspace(normal, normal.dot(p.centroid())))
    if draw(st.integers(0, 5)) == 5:
        h = draw(copies)
        hs.append(Halfspace(-h.normal, 1 - h.offset))
    return hs, draw(st.permutations(hs))


def _h_outcome(hs):
    """The vertex tuple and kept facets of hrep_to_vrep, or its error type."""
    try:
        q = hrep_to_vrep(hs)
    except ValueError as exc:
        return type(exc)
    return q.vertices, q._facets


def _brute_kept(hs, vertices):
    """The kept facets from the definition: each halfspace's tight vertex
    set by direct evaluation, the first halfspace (input order) of every
    maximal nonempty set, or None when one is tight on every vertex."""
    tight = [frozenset(v for v in vertices if h.evaluate(v) == 0) for h in hs]
    if frozenset(vertices) in tight:
        return None
    kept = [j for j, t in enumerate(tight)
            if t and not any(t < u for u in tight) and tight.index(t) == j]
    return tuple(hs[j] for j in kept)


@settings(max_examples=200)
@given(halfspace_lists())
def test_hrep_answers_do_not_depend_on_row_order(case):
    hs, shuffled = case
    given_order, other = _h_outcome(hs), _h_outcome(shuffled)
    if isinstance(given_order, type):
        assert other is given_order
        return
    vertices, kept = given_order
    assert other[0] == vertices
    assert all(h.evaluate(v) >= 0 for h in hs for v in vertices)
    assert kept == _brute_kept(hs, vertices)
    assert other[1] == _brute_kept(shuffled, vertices)


def test_hrep_gives_dd_its_rows_sorted(monkeypatch):
    hs = effect_constraints(load("squit").gpt_system().states)
    rows = [h.inormal + (-h.ioffset,) for h in hs] + [(0, 0, 0, 1)]
    assert rows != sorted(rows)  # the caller's order is not already sorted
    seen = []
    real = geometry._dd

    def recorded(normals, dim):
        seen.append(list(normals))
        return real(normals, dim)

    monkeypatch.setattr(geometry, "_dd", recorded)
    body = hrep_to_vrep(hs)
    assert seen == [sorted(rows)]
    assert body._facets == tuple(h for h in hs if h in set(body._facets))


_MIXED = [qvec(0, 0), qvec(1, 0), qvec(F(1, 3), 1), qvec(F(1, 2), F(1, 4)), qvec(F(1, 6), 0),
          qvec(F(1, 3), F(1, 3)), qvec(1, 0)]


def test_hull_gives_dd_its_rows_largest_denominator_first(monkeypatch):
    rows = [integerize(tuple(p) + (F(1),)) for p in set(_MIXED)]
    order = sorted(rows, key=lambda r: (-r[-1], r))
    assert order != sorted(rows)  # not the lexicographic order
    seen = []
    real = geometry._dd

    def recorded(normals, dim):
        seen.append(list(normals))
        return real(normals, dim)

    monkeypatch.setattr(geometry, "_dd", recorded)
    body = hull_reduce(_MIXED)
    assert seen == [order]
    # the vertices come back sorted, whatever order the pass saw them in
    assert body.vertices == (qvec(0, 0), qvec(F(1, 3), 1), qvec(1, 0))


def _lex_hull(points):
    """The oracle for the denominator-first order: one DD pass over the
    lexicographically sorted lifted points, read as :func:`geometry._hull`
    reads its pass.  The vertex tuple, the facets and the equations."""
    pts = [QVec(p) for p in points]
    if not pts:
        raise geometry.EmptyInputError("hull of no points")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionMismatchError("hull input of mixed dimension")
    pts = sorted(set(pts))
    rays, lin = geometry._dd([integerize(tuple(p) + (F(1),)) for p in pts], dim + 1)
    facet_rays = [(g, mask) for g, mask in rays if mask and any(g[:dim])]
    vertices = tuple(pts[i] for i in geometry._irredundant((m for _, m in facet_rays),
                                                            len(pts)))
    equations = {Halfspace._from_ints(l[:dim], -l[dim]) for l in lin}
    equations |= {Halfspace._from_ints(tuple(-x for x in l[:dim]), l[dim]) for l in lin}
    return vertices, {Halfspace._from_ints(g[:dim], -g[dim]) for g, _ in facet_rays}, equations


def _hull_outcome(points):
    """hull_reduce's vertex tuple, facets and equations (the halfspaces kept
    with their negation), or its error type."""
    try:
        p = hull_reduce(points)
    except ValueError as exc:
        return type(exc)
    kept = {(h.inormal, h.ioffset) for h in p.facets}
    equations = {h for h in p.facets if (tuple(-x for x in h.inormal), -h.ioffset) in kept}
    return p.vertices, set(p.facets) - equations, equations


def _lex_outcome(points):
    try:
        return _lex_hull(points)
    except ValueError as exc:
        return type(exc)


mixed_coord = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9]))


@st.composite
def hull_inputs(draw):
    """Points of mixed denominators with duplicates; points on a line or
    plane; a single point; the vertices of a random state space's effect
    body cut through an interior point, with 0 and u, as the random
    generator hulls them; now and then no points or mixed dimensions."""
    kind = draw(st.sampled_from(["mixed", "flat", "cut", "bad"]))
    if kind == "cut":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        states = random_state_space(rng, draw(st.integers(3, 4)))
        full, u = unrestricted_effects(states), states.unit
        q = randomgen._interior_point(rng, full)
        normal = QVec([randomgen.random_fraction(rng) for _ in u])
        hs = list(full.facets) + ([Halfspace(-normal, -normal.dot(q))] if any(normal) else [])
        hs += [Halfspace(-h.normal, h.offset - h.normal.dot(u)) for h in hs]
        try:
            closed = hrep_to_vrep(hs)
        except (geometry.EmptyIntersectionError, UnboundedError):
            assume(False)
        return list(closed.vertices) + [u * 0, u]
    if kind == "bad":
        return draw(st.sampled_from([[], [qvec(1, 2), qvec(1, 2, 3)]]))
    dim = draw(st.integers(1, 5))
    vecs = st.tuples(*[mixed_coord] * dim).map(QVec)
    if kind == "mixed":
        pts = draw(st.lists(vecs, min_size=1, max_size=10))
    else:
        base = draw(st.lists(vecs, min_size=1, max_size=min(dim, 3)))
        weights = st.lists(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(2)]),
                           min_size=len(base), max_size=len(base))
        pts = [sum((b * w for b, w in zip(base[1:], ws)), base[0])
               for ws in draw(st.lists(weights, min_size=1, max_size=8))]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=2))


@settings(max_examples=200, deadline=None)
@given(hull_inputs())
def test_hull_answers_match_the_lexicographic_pass(pts):
    assert _hull_outcome(pts) == _lex_outcome(pts)


def test_effect_body_of_the_256_gon():
    states = StateSpace(smooth.disc_polygon_states(256), qvec(0, 0, 1))
    hs = effect_constraints(states)
    body = hrep_to_vrep(hs)
    assert len(body.vertices) == 514
    # every input halfspace is a facet, kept in input order
    assert body._facets == tuple(hs)


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


def _classify_by_loop(sys):
    """The tag, and the first vertex of E(S) in vertex order that has a
    negative product with a normal of cone(E), one vertex at a time."""
    es = unrestricted_effects(sys.states)
    if set_equal(sys.effects.polytope, es):
        return GptClass.UNRESTRICTED, None
    normals = [h.inormal for h in sys.effects.polytope.facets if h.ioffset == 0]
    for v in es.vertices:
        if any(geometry._idot(a, integerize(v)) < 0 for a in normals):
            return GptClass.NOT_ALMOST_NU, v
    return GptClass.NOISY_UNRESTRICTED, None


def _assert_classify_matches_the_loop(sys):
    expected = _classify_by_loop(sys)
    for rows in BOTH_PATHS:
        with mock.patch.object(geometry, "_PACKED_ROWS", rows):
            c = systems._classify(sys)
        assert (c.tag, c.witness) == expected


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32), st.integers(2, 4))
def test_packed_classify_matches_the_vertex_loop(seed, dim):
    _assert_classify_matches_the_loop(random_system(random.Random(seed), dim))


def test_packed_classify_matches_the_vertex_loop_on_fixed_systems(fifty_seven):
    families = (Rebit(), NoisyRebit(F(1, 2)), AnuBit())
    for sys in fifty_seven + [discretize(f, n).system for f in families for n in (16, 17)]:
        _assert_classify_matches_the_loop(sys)


def _range_by_loop(states, effects):
    """The first (effect, state) pair, in vertex order, off [0, 1]."""
    for e in effects.vertices:
        for w in states.vertices:
            if not 0 <= e.dot(w) <= 1:
                return [systems.Violation(
                    "EffectOutOfRange", f"effect {e} gives probability {e.dot(w)} on state {w}")]
    return []


scales = st.sampled_from([F(1), F(1, 2), F(3, 4), F(5, 4), F(2), F(-1, 3)])


@settings(max_examples=120)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), scales, scales, scales, st.integers(0, 99))
def test_packed_range_axiom_matches_the_pair_loop(seed, dim, state_scale, effect_scale,
                                                  vertex_scale, k):
    # scaled states break u.w = 1 too, as check_system sees them; one more
    # scaled effect vertex leaves some states in range and takes others out
    states = random_state_space(random.Random(seed), dim)
    full = unrestricted_effects(states)
    scaled = Polytope._raw(tuple(w * state_scale for w in states.polytope.vertices))
    vertices = [e * effect_scale for e in full.vertices]
    vertices[k % len(vertices)] *= vertex_scale
    effects = Polytope._raw(tuple(vertices))
    expected = _range_by_loop(scaled, effects)
    for rows in BOTH_PATHS:
        with mock.patch.object(geometry, "_PACKED_ROWS", rows):
            assert systems._range_axiom(scaled, effects) == expected


def test_primitive_integer_halfspace():
    h = Halfspace((F(1, 2), F(-3, 4)), F(1, 4))
    assert (h.inormal, h.ioffset) == ((2, -3), 1)
    assert h.inormal + (h.ioffset,) == integerize(tuple(h.normal) + (h.offset,))
    assert h == Halfspace((2, -3), 1)


def test_halfspace_holds_only_its_primitive_pair():
    h = Halfspace((2, 0), 2)
    assert h.normal == qvec(1, 0) and h.offset == 1
    assert type(h.offset) is Fraction and all(type(c) is Fraction for c in h.normal)
    assert h == Halfspace((1, 0), 1) and hash(h) == hash(Halfspace((1, 0), 1))
    states = discretize(Rebit(), 6).system.states
    full = unrestricted_effects(states)  # the polygon route
    solid = unrestricted_effects(random_state_space(random.Random(3), 4))  # hrep_to_vrep
    facets = [*hull_reduce([qvec(0, 0), qvec(1, 0), qvec(0, 1)]).facets, *full.facets,
              *solid.facets, *systems.noisy_effects(full, states.unit, F(1, 2)).facets]
    for f in facets:
        assert type(f).__slots__ == ("inormal", "ioffset") and not hasattr(f, "__dict__")
        assert type(f.inormal) is tuple and all(type(c) is int for c in f.inormal)
        assert type(f.ioffset) is int


def test_halfspace_rejects_floats_and_a_zero_normal():
    for normal, offset in (((0.5, 1), 0), ((1, 0), 0.5)):
        with pytest.raises(ExactArithmeticError):
            Halfspace(normal, offset)
    with pytest.raises(ValueError, match="nonzero"):
        Halfspace((0, 0), 1)
