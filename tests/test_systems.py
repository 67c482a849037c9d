"""State/effect model: validation axioms, the two duality maps, the
classification and the representation changes."""
import random
from fractions import Fraction

import pytest

from gptgeom import geometry, systems
from gptgeom.gallery import load
from gptgeom.geometry import (
    EmptyIntersectionError,
    Halfspace,
    Polytope,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
    vrep_to_hrep,
)
from gptgeom.linalg import (
    DimensionMismatchError, QVec, SingularMatrixError, qvec, rank, unit_vector, zero_vector,
)
from gptgeom.smooth import NoisyRebit, discretize
from gptgeom.systems import (
    EffectSpace,
    GptClass,
    GptSystem,
    GptValidationError,
    StateSpace,
    Transform,
    UnboundedError,
    Violation,
    admits_gtt,
    check_system,
    classify,
    decompose_in_cone,
    effect_constraints,
    states_from_effects,
    transform_system,
    unrestricted_effects,
    validate_system,
)

F = Fraction


def bit_states():
    return hull_reduce([qvec(0, 1), qvec(1, 1)])


def bit_effects():
    return hull_reduce([qvec(0, 0), qvec(0, 1), qvec(1, 0), qvec(-1, 1)])


# -- validation ----------------------------------------------------------------

def test_bit_is_valid():
    sys = validate_system(bit_states(), bit_effects(), "bit")
    assert sys.name == "bit"


def test_complement_closure_violation():
    effects = hull_reduce([qvec(0, 0), qvec(0, 1), qvec(F(1, 4), F(1, 4))])
    violations = check_system(bit_states(), effects)
    assert any(v.code == "NotComplementClosed" for v in violations)


def test_spekkens_is_valid():
    entry = load("spekkens")
    sys = entry.gpt_system()
    assert not check_system(sys.states.polytope, sys.effects.polytope)


def test_missing_zero_or_unit():
    effects = hull_reduce([qvec(F(1, 4), F(1, 4)), qvec(F(-1, 4), F(3, 4))])
    violations = check_system(bit_states(), effects)
    assert any(v.code == "MissingZeroOrUnit" for v in violations)


def test_does_not_span():
    effects = hull_reduce([qvec(0, 0), qvec(0, 1)])
    violations = check_system(bit_states(), effects)
    assert any(v.code == "DoesNotSpan" for v in violations)


def test_state_normalization_violated():
    states = hull_reduce([qvec(0, 1), qvec(1, 2)])
    violations = check_system(states, bit_effects())
    assert any(v.code == "StateNormalizationViolated" for v in violations)


def test_state_space_rejects_an_unnormalized_state():
    with pytest.raises(GptValidationError) as err:
        StateSpace(hull_reduce([qvec(0, 1), qvec(1, 2)]))
    assert _codes(err) == ["StateNormalizationViolated"]


@pytest.mark.parametrize("unit", [qvec(1), qvec(0, 0, 1)])
def test_state_space_rejects_a_unit_of_another_length(unit):
    with pytest.raises(DimensionMismatchError):
        StateSpace(hull_reduce([qvec(-1, 1), qvec(1, 1)]), unit)


def test_check_system_reports_a_dimension_mismatch_alone():
    squit = load("squit").gpt_system()
    violations = check_system(bit_states(), squit.effects.polytope)
    assert [v.code for v in violations] == ["DimensionMismatch"]


def test_effect_out_of_range():
    effects = hull_reduce([qvec(0, 0), qvec(0, 1), qvec(2, 0), qvec(-2, 1)])
    violations = check_system(bit_states(), effects)
    assert any(v.code == "EffectOutOfRange" for v in violations)


def test_validate_raises_with_report():
    with pytest.raises(GptValidationError) as err:
        validate_system(bit_states(), hull_reduce([qvec(0, 0), qvec(0, 1)]))
    assert err.value.violations


# -- one route to a system: the constructor checks the pair ----------------------


def _codes(exc_info):
    return [v.code for v in exc_info.value.violations]


def test_constructor_rejects_an_effect_outside_the_full_body():
    # valid on its own (0, u, closed under complement, spanning), but (-2, 2)
    # gives the state (0, 1) probability 2
    effects = EffectSpace(hull_reduce([qvec(0, 0), qvec(0, 1), qvec(-2, 2), qvec(2, -1)]))
    states = StateSpace(bit_states())
    with pytest.raises(GptValidationError) as err:
        GptSystem(states, effects)
    assert _codes(err) == ["EffectOutOfRange"]
    with pytest.raises(GptValidationError) as err:
        validate_system(states, effects.polytope)
    assert _codes(err) == ["EffectOutOfRange"]


def test_constructor_rejects_mismatched_units_and_dimensions():
    bit = validate_system(bit_states(), bit_effects())
    moved = transform_system(bit, Transform([[1, 0], [1, 1]]))  # unit (-1, 1)
    assert moved.unit != bit.unit
    with pytest.raises(GptValidationError) as err:
        GptSystem(bit.states, moved.effects)
    assert _codes(err) == ["UnitMismatch"]
    squit = load("squit").gpt_system()
    with pytest.raises(GptValidationError) as err:
        GptSystem(bit.states, squit.effects)
    assert _codes(err) == ["DimensionMismatch"]


def test_validate_keeps_a_state_space_and_checks_its_unit():
    states = StateSpace(bit_states())
    sys = validate_system(states, bit_effects(), "bit")
    assert sys.states is states and sys.unit == states.unit
    assert GptSystem(sys.states, sys.effects, "bit") == sys
    with pytest.raises(GptValidationError) as err:
        validate_system(states, bit_effects(), unit=qvec(1, 1))
    assert _codes(err) == ["UnitMismatch"]
    # the same unit given explicitly is accepted
    assert validate_system(states, bit_effects(), unit=qvec(0, 1)).states is states


def test_validate_collects_every_violation_of_a_polytope_pair():
    states = hull_reduce([qvec(0, 1), qvec(1, 2)])
    effects = hull_reduce([qvec(0, 0), qvec(0, 1)])
    with pytest.raises(GptValidationError) as err:
        validate_system(states, effects)
    assert _codes(err) == ["StateNormalizationViolated", "DoesNotSpan", "EffectOutOfRange"]


def _transform_of(dim):
    """A unimodular matrix: the identity plus ones above the diagonal."""
    return Transform([[int(i == j or j == i + 1) for j in range(dim)] for i in range(dim)])


def _valid(sys):
    return sys.states.unit == sys.effects.unit and not check_system(
        sys.states.polytope, sys.effects.polytope, sys.unit)


def test_trusted_builders_give_valid_systems(random_systems, gallery_systems):
    from gptgeom.randomgen import random_system
    from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize
    assert all(_valid(s) for s in random_systems)
    gen = random.Random(31)
    assert all(_valid(random_system(gen, d, restrict=True)) for d in (2, 3, 3, 4, 4, 5))
    for family in (Rebit(), NoisyRebit(F(1, 2)), AnuBit()):
        for n in (3, 4, 7, 16):
            assert _valid(discretize(family, n).system), (family, n)
    for name, sys in gallery_systems:
        assert _valid(transform_system(sys, _transform_of(sys.dim))), name


# -- unrestricted effects --------------------------------------------------------

def test_bit_full_effects_oracle():
    # oracle: the four hand-written inequalities 0 <= b <= 1, 0 <= a+b <= 1
    oracle = hrep_to_vrep([
        Halfspace((0, 1), 0), Halfspace((0, -1), -1),
        Halfspace((1, 1), 0), Halfspace((-1, -1), -1),
    ])
    computed = unrestricted_effects(StateSpace(bit_states()))
    assert set_equal(computed, oracle)
    # the two-outcome measurement's effects are extremal points of it
    assert qvec(-1, 1) in computed.vertices and qvec(1, 0) in computed.vertices


def test_spekkens_full_effects_are_cube():
    entry = load("spekkens")
    computed = unrestricted_effects(entry.gpt_system().states)
    half = F(1, 2)
    cube = [qvec(a * half, b * half, c * half, half)
            for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    expected = hull_reduce([qvec(0, 0, 0, 0), unit_vector(4)] + cube)
    assert set_equal(computed, expected)


def test_singleton_states_give_slab():
    single = StateSpace(hull_reduce([qvec(F(1, 2), 1)]))
    with pytest.raises(UnboundedError):
        unrestricted_effects(single)
    slab = effect_constraints(single)
    inside = [qvec(1, 0), qvec(0, 1), qvec(-4, 2)]      # e.w in [0,1]
    outside = [qvec(3, 0), qvec(0, 2), qvec(F(1, 2), 1)]
    for e in inside:
        assert all(h.holds(e) for h in slab)
    for e in outside:
        assert not all(h.holds(e) for h in slab)


# -- states from effects ----------------------------------------------------------

def test_bit_effects_recover_bit_states():
    sys = validate_system(bit_states(), bit_effects())
    assert set_equal(states_from_effects(sys.effects), bit_states())


def test_spekkens_effects_recover_cube():
    entry = load("spekkens")
    recovered = states_from_effects(entry.gpt_system().effects)
    cube = hull_reduce([qvec(a, b, c, 1)
                        for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    assert set_equal(recovered, cube)
    # oracle: each sign pattern saturates its three matching effect constraints
    for v in cube.vertices:
        for e in entry.gpt_system().effects.polytope.vertices:
            assert e.dot(v) >= 0


def test_full_effects_recover_states_on_gallery():
    for name in ("bit", "bit-transformed", "squit", "spekkens"):
        sys = load(name).gpt_system()
        full = EffectSpace(unrestricted_effects(sys.states), sys.unit)
        assert set_equal(states_from_effects(full), sys.states.polytope)


def test_nonspanning_effects_unbounded():
    effects = EffectSpace.__new__(EffectSpace)
    effects.polytope = hull_reduce([qvec(0, 0, 0), qvec(0, 0, 1)])
    effects.unit = unit_vector(3)
    with pytest.raises(UnboundedError):
        states_from_effects(effects)


def test_effects_around_zero_recover_no_state():
    # 0 is interior, so no facet passes through it: cone(E) is the whole
    # plane and no normalized vector is nonnegative on every effect
    square = hull_reduce([qvec(x, y) for x in (-1, 1) for y in (F(-1, 2), F(3, 2))])
    effects = EffectSpace(square, qvec(0, 1))
    with pytest.raises(EmptyIntersectionError):
        states_from_effects(effects)


# -- classification ----------------------------------------------------------------

def test_classify_bit_unrestricted():
    sys = validate_system(bit_states(), bit_effects())
    assert classify(sys).tag is GptClass.UNRESTRICTED


def test_classify_spekkens_not_almost_nu():
    result = load("spekkens").classify()
    assert result.tag is GptClass.NOT_ALMOST_NU
    half = F(1, 2)
    cube = {qvec(a * half, b * half, c * half, half)
            for a in (1, -1) for b in (1, -1) for c in (1, -1)}
    assert result.witness in cube


def test_classify_noisy_bit_via_cone_oracle():
    entry = load("noisy-bit(1/2)")
    sys = entry.gpt_system()
    assert classify(sys).tag is GptClass.NOISY_UNRESTRICTED
    # oracle: direct cone equality against the full body, plus strictness
    full = unrestricted_effects(sys.states)
    assert set_equal(positive_cone(sys.effects.polytope), positive_cone(full))
    assert not set_equal(sys.effects.polytope, full)


def test_admits_gtt_examples():
    assert admits_gtt(load("rebit-64").gpt_system())
    assert not admits_gtt(load("spekkens").gpt_system())
    assert admits_gtt(load("squit").gpt_system())


# -- transforms ---------------------------------------------------------------------

def test_bit_transform_reproduces_skewed_coordinates():
    sys = validate_system(bit_states(), bit_effects(), "bit")
    moved = transform_system(sys, Transform([[2, -1], [0, 1]]))
    assert set(moved.states.polytope.vertices) == {qvec(-1, 1), qvec(1, 1)}
    assert set(moved.effects.polytope.vertices) == {
        qvec(0, 0), qvec(0, 1), qvec(F(1, 2), F(1, 2)), qvec(F(-1, 2), F(1, 2))
    }
    assert moved.unit == qvec(0, 1)


def test_identity_transform():
    sys = validate_system(bit_states(), bit_effects())
    moved = transform_system(sys, Transform([[1, 0], [0, 1]]))
    assert set_equal(moved.states.polytope, sys.states.polytope)
    assert set_equal(moved.effects.polytope, sys.effects.polytope)


def test_random_transform_roundtrip_and_invariance(rng):
    sys = load("squit").gpt_system()
    for _ in range(5):
        while True:
            rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                    for _ in range(3)]
            try:
                t = Transform(rows)
                break
            except SingularMatrixError:
                continue
        moved = transform_system(sys, t)
        for e in sys.effects.polytope.vertices:
            for w in sys.states.polytope.vertices:
                assert t.apply_effect(e).dot(t.apply_state(w)) == e.dot(w)
        back = transform_system(moved, t.inverted())
        assert set_equal(back.states.polytope, sys.states.polytope)
        assert set_equal(back.effects.polytope, sys.effects.polytope)
        assert classify(moved).tag is classify(sys).tag


def test_transform_carries_the_facets(monkeypatch):
    sys = load("squit").gpt_system()
    t = Transform([[1, F(2, 3), 0], [0, 1, F(1, 2)], [0, 0, 1]])
    calls = []
    real = geometry._dd
    monkeypatch.setattr(geometry, "_dd", lambda rows, dim: calls.append(rows) or real(rows, dim))
    moved = transform_system(sys, t)
    images = (moved.states.polytope.facets, moved.effects.polytope.facets)
    assert calls == []
    monkeypatch.undo()
    for body, facets in zip((moved.states.polytope, moved.effects.polytope), images):
        assert set(facets) == set(vrep_to_hrep(body))
    assert classify(moved).tag is classify(sys).tag
    # a body whose facets are unknown maps to one whose facets are unknown
    bare = GptSystem(StateSpace(Polytope._raw(sys.states.polytope.vertices)),
                     EffectSpace(Polytope._raw(sys.effects.polytope.vertices)))
    assert transform_system(bare, t).states.polytope._facets is None


def test_singular_transform_rejected():
    with pytest.raises(SingularMatrixError):
        Transform([[1, 1], [1, 1]])


# -- cone decomposition ----------------------------------------------------------------

def test_decompose_zero_vector():
    sys = validate_system(bit_states(), bit_effects())
    a, b = decompose_in_cone(qvec(0, 0), sys.effects)
    assert a == b and a - b == qvec(0, 0)


def test_decompose_unit_in_bit():
    sys = validate_system(bit_states(), bit_effects())
    cone = positive_cone(sys.effects.polytope)
    a, b = decompose_in_cone(qvec(0, 1), sys.effects)
    assert cone.contains(a) and cone.contains(b)
    assert a - b == qvec(0, 1)


def test_decompose_in_transformed_effects():
    sys = load("bit-transformed").gpt_system()
    cone = positive_cone(sys.effects.polytope)
    target = qvec(-5, 3)
    a, b = decompose_in_cone(target, sys.effects)
    assert cone.contains(a) and cone.contains(b)
    assert a - b == target


# -- integer effect axioms against the Fraction route ------------------------------


def _fraction_effect_axioms(polytope, unit):
    """The earlier route: complement closure on a set of Fraction vertices,
    spanning by ``rank``."""
    out = []
    if not polytope.contains(zero_vector(polytope.dim)) or not polytope.contains(unit):
        out.append(Violation("MissingZeroOrUnit",
                             "effect space must contain the zero and unit effects"))
    else:
        verts = set(polytope.vertices)
        missing = next((e for e in polytope.vertices if unit - e not in verts), None)
        if missing is not None:
            out.append(Violation("NotComplementClosed", f"complement of {missing} missing"))
    if rank(polytope.vertices) < polytope.dim:
        out.append(Violation("DoesNotSpan", "effects do not span the ambient space"))
    return out


def _rational_transform_of(dim):
    """An upper triangular matrix with non-integer entries, so the unit of
    the image has denominators."""
    return Transform([[F(2, 3) if i == j else F(1, 2) if j == i + 1 else 0
                       for j in range(dim)] for i in range(dim)])


@pytest.fixture(scope="module")
def bodies(gallery_systems, random_systems):
    """(E, u) of the gallery, the fixture systems, the disc families at
    n = 3..32 and rational-unit images of a sample of them."""
    from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize
    pool = [sys for _, sys in gallery_systems] + list(random_systems)
    for family in (Rebit(), NoisyRebit(F(1, 2)), AnuBit()):
        pool += [discretize(family, n).system for n in range(3, 33)]
    pool += [transform_system(sys, _rational_transform_of(sys.dim))
             for sys in pool[:7] + pool[7:57:5]]
    return [(sys.effects.polytope, sys.unit) for sys in pool]


def test_integer_effect_axioms_match_the_fraction_route(bodies):
    assert any(u != unit_vector(len(u)) and any(c.denominator > 1 for c in u)
               for _, u in bodies)
    for body, unit in bodies:
        assert systems._effect_axioms(body, unit) == _fraction_effect_axioms(body, unit) == []


def test_integer_effect_axioms_name_the_same_missing_complement(bodies):
    for body, unit in bodies:
        verts = body.vertices
        inner = [v for v in verts if not v.is_zero() and v != unit and unit - v != v]
        for v in {inner[0], inner[len(inner) // 2]} if inner else ():
            dropped = Polytope._raw(tuple(w for w in verts if w != v))
            got = systems._effect_axioms(dropped, unit)
            assert got == _fraction_effect_axioms(dropped, unit)
            assert got == [Violation("NotComplementClosed", f"complement of {unit - v} missing")]


def test_integer_effect_axioms_find_a_flat_body(bodies):
    for body, unit in bodies:
        if unit != unit_vector(body.dim):
            continue
        # dropping the first coordinate keeps 0, u and complement closure
        flat = hull_reduce([QVec([0] + list(v[1:])) for v in body.vertices])
        got = systems._effect_axioms(flat, unit)
        assert got == _fraction_effect_axioms(flat, unit)
        assert got == [Violation("DoesNotSpan", "effects do not span the ambient space")]


def test_span_probe_falls_back_to_all_rows(monkeypatch):
    calls = []
    real = systems._bareiss
    monkeypatch.setattr(systems, "_bareiss", lambda m, n: calls.append(len(m)) or real(m, n))
    # the square [0, 1]^2 with unit (1, 1): the probe's rows, the first and
    # the third vertex (0, 0) and (1, 0), have rank 1, all four rows rank 2
    square = hull_reduce([qvec(0, 0), qvec(0, 1), qvec(1, 0), qvec(1, 1)])
    assert systems._effect_axioms(square, qvec(1, 1)) == []
    assert calls == [2, 4]
    # a disc body's probe spans alone
    body = discretize(NoisyRebit(F(1, 2)), 16).system.effects.polytope
    del calls[:]
    assert systems._effect_axioms(body, unit_vector(3)) == []
    assert calls == [3]
    # a flat body falls short on both
    flat = hull_reduce([qvec(0, 0, 0), qvec(0, 0, 1), qvec(0, 1, 1), qvec(0, -1, 0)])
    del calls[:]
    assert systems._effect_axioms(flat, unit_vector(3)) == [
        Violation("DoesNotSpan", "effects do not span the ambient space")]
    assert calls == [2, 4]
