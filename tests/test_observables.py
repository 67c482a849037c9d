"""Observable algebra: unit-sum checks, added noise, mixing, coarse-graining."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gptgeom.gallery import load
from gptgeom.linalg import QVec, qvec, zero_vector
from gptgeom.observables import (
    InvalidPartitionError,
    Observable,
    ProbabilityOutOfRangeError,
    WeightsNotNormalizedError,
    coarse_grain,
    dichotomic_extremal_observables,
    is_observable,
    mix_observables,
    noisy_observable,
)
from gptgeom.systems import GptValidationError, EffectSpace
from gptgeom.geometry import hull_reduce

F = Fraction


@pytest.fixture(scope="module")
def bit():
    return load("bit").gpt_system()


def random_effect(gen, sys):
    weights = [F(gen.randint(0, 4)) for _ in sys.effects.polytope.vertices]
    if sum(weights) == 0:
        weights[0] = F(1)
    total = sum(weights)
    acc = zero_vector(sys.dim)
    for w, v in zip(weights, sys.effects.polytope.vertices):
        acc = acc + v * (w / total)
    return acc


def test_two_outcome_measurement_is_observable(bit):
    assert is_observable([qvec(-1, 1), qvec(1, 0)], bit)


def test_unit_singleton_is_observable(bit):
    assert is_observable([bit.unit], bit)


def test_double_unit_is_not(bit):
    assert not is_observable([bit.unit, bit.unit], bit)


def test_empty_tuple_is_not(bit):
    # it sums to 0, not to the unit
    assert not is_observable([], bit)


def subset_sums_are_effects(outcomes, sys):
    """Brute force over all 2^n - 1 coarse-grainings: the oracle for
    ``is_observable``."""
    effects = [QVec(e) for e in outcomes]
    if sum(effects[1:], effects[0]) != sys.unit:
        return False
    body = sys.effects.polytope
    return all(body.contains(sum(c[1:], c[0]))
               for r in range(1, len(effects) + 1) for c in combinations(effects, r))


def split(e, weights):
    """e cut into len(weights) pieces in proportion to the weights."""
    total = sum(weights)
    return [e * F(w, total) for w in weights]


@pytest.fixture(scope="module")
def noisy_bit():
    # E is the hexagon with vertices 0, u, (+-1/4, 1/4), (+-1/4, 3/4)
    return load("noisy-bit(1/2)").gpt_system()


def test_seventeen_outcomes_valid(noisy_bit):
    e = qvec(F(1, 4), F(1, 4))
    outcomes = split(e, range(1, 9)) + split(noisy_bit.unit - e, range(1, 10))
    assert len(outcomes) == 17
    assert is_observable(outcomes, noisy_bit)


def test_seventeen_outcomes_invalid(noisy_bit):
    # every outcome is an effect and they sum to the unit, but the first
    # two coarse-grain to (-1/2, 1/2), which lies outside E
    f = qvec(F(-1, 4), F(1, 4))
    outcomes = [f, f] + split(noisy_bit.unit - f - f, [1] * 15)
    assert len(outcomes) == 17
    assert all(noisy_bit.effects.polytope.contains(e) for e in outcomes)
    assert not is_observable(outcomes, noisy_bit)


@st.composite
def observable_draws(draw, sys):
    """(kind, outcomes) with n <= 10: 'split' pieces of a vertex e and of
    u - e (always an observable); 'free' scaled vertices of E and pieces of
    the rest (either way); 'twice' a vertex v of E with v + v outside E, v
    again and pieces of u - 2v (never one, though for a restricted E every
    outcome is often an effect); 'outside' a point beyond a vertex of E and
    pieces of the rest (never one)."""
    verts = sys.effects.polytope.vertices
    u = sys.unit
    n = draw(st.integers(2, 10))
    weights = st.integers(0, 5)
    kind = draw(st.sampled_from(["split", "free", "twice", "outside"]))
    if kind == "split":
        e = draw(st.sampled_from(verts))
        k = draw(st.integers(1, n - 1))
        ws = draw(st.lists(weights, min_size=n, max_size=n)
                  .filter(lambda w: any(w[:k]) and any(w[k:])))
        outcomes = split(e, ws[:k]) + split(u - e, ws[k:])
    elif kind == "free":
        k = draw(st.integers(1, n - 1))
        scales = st.sampled_from([F(1), F(1, 2), F(1, 3)])
        outcomes = [draw(st.sampled_from(verts)) * draw(scales) for _ in range(k)]
        ws = draw(st.lists(st.integers(1, 5), min_size=n - k, max_size=n - k))
        outcomes += split(u - sum(outcomes[1:], outcomes[0]), ws)
    elif kind == "twice":
        body = sys.effects.polytope
        v = draw(st.sampled_from(verts).filter(lambda v: not body.contains(v + v)))
        m = max(n - 2, 2)
        ws = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        outcomes = [v, v] + split(u - v - v, ws)
    else:
        c = sum(verts[1:], verts[0]) * F(1, len(verts))
        v = draw(st.sampled_from(verts))
        out = c + (v - c) * F(9, 8)
        ws = draw(st.lists(weights, min_size=n - 1, max_size=n - 1).filter(any))
        outcomes = [out] + split(u - out, ws)
    return kind, draw(st.permutations(outcomes))


@pytest.mark.parametrize("name", [
    "bit", "bit-transformed", "noisy-bit(1/2)", "notch-bit", "squit", "spekkens", "rebit-64",
])
@settings(max_examples=60)
@given(data=st.data())
def test_per_facet_check_matches_subset_enumeration(gallery_systems, name, data):
    sys = dict(gallery_systems)[name]
    kind, outcomes = data.draw(observable_draws(sys))
    got = is_observable(outcomes, sys)
    assert got == subset_sums_are_effects(outcomes, sys)
    if kind != "free":
        assert got is (kind == "split")


def test_noisy_p1_appends_zero(bit):
    obs = Observable([qvec(-1, 1), qvec(1, 0)])
    noisy = noisy_observable(obs, 1)
    assert noisy.outcomes == obs.outcomes + (zero_vector(2),)


def test_noisy_half_splits_unit(bit):
    e = qvec(F(1, 2), F(1, 4))
    obs = Observable([e, bit.unit - e])
    noisy = noisy_observable(obs, F(1, 2))
    assert noisy.outcomes == (e * F(1, 2), (bit.unit - e) * F(1, 2), bit.unit * F(1, 2))
    assert noisy.total == bit.unit


def test_noisy_probability_range(bit):
    obs = Observable([bit.unit])
    for p in (0, F(3, 2), -1):
        with pytest.raises(ProbabilityOutOfRangeError):
            noisy_observable(obs, p)


def test_worked_three_outcome_mixture(bit, rng):
    # mixing a three-outcome observable with a padded two-outcome one at
    # weights 1/3 and 2/3, then merging the first two outcomes, must equal
    # the dichotomic observable built from the combined effect
    u = bit.unit
    for _ in range(20):
        e1 = random_effect(rng, bit)
        e2 = random_effect(rng, bit)
        f = random_effect(rng, bit)
        mixed = mix_observables([
            (Observable([e1, e2, u - e1 - e2]), F(1, 3)),
            (Observable([f, zero_vector(2), u - f]), F(2, 3)),
        ])
        g = (e1 + e2 + f * 2) * F(1, 3)
        assert mixed.outcomes == (
            (e1 + f * 2) * F(1, 3), e2 * F(1, 3), u - g
        )
        merged = coarse_grain(mixed, [[0, 1], [2]])
        assert merged.outcomes == (g, u - g)


def test_mix_single_is_identity(bit):
    obs = Observable([qvec(-1, 1), qvec(1, 0)])
    assert mix_observables([(obs, 1)]).outcomes == obs.outcomes


def test_equal_mix_of_halves(bit, rng):
    # measuring either of two padded dichotomic observables with equal
    # probability simulates the halved two-effect observable
    u = bit.unit
    e = random_effect(rng, bit)
    e2 = random_effect(rng, bit)
    mixed = mix_observables([
        (Observable([e, zero_vector(2), u - e]), F(1, 2)),
        (Observable([zero_vector(2), e2, u - e2]), F(1, 2)),
    ])
    assert mixed.outcomes == (e * F(1, 2), e2 * F(1, 2), u - (e + e2) * F(1, 2))


def test_mix_weight_validation(bit):
    obs = Observable([bit.unit])
    with pytest.raises(WeightsNotNormalizedError):
        mix_observables([(obs, F(1, 2)), (obs, F(1, 3))])
    with pytest.raises(WeightsNotNormalizedError):
        mix_observables([(obs, F(3, 2)), (obs, F(-1, 2))])


def test_coarse_grain_singletons_and_total(bit):
    obs = Observable([qvec(-1, 1), qvec(1, 0)])
    assert coarse_grain(obs, [[0], [1]]).outcomes == obs.outcomes
    assert coarse_grain(obs, [[0, 1]]).outcomes == (bit.unit,)


def test_coarse_grain_partition_validation(bit):
    obs = Observable([qvec(-1, 1), qvec(1, 0)])
    with pytest.raises(InvalidPartitionError):
        coarse_grain(obs, [[0], [0, 1]])
    with pytest.raises(InvalidPartitionError):
        coarse_grain(obs, [[0]])


def test_dichotomic_extremal_bit(bit):
    observables = dichotomic_extremal_observables(bit)
    tuples = {o.outcomes for o in observables}
    assert tuples == {
        (qvec(-1, 1), qvec(1, 0)),
        (qvec(1, 0), qvec(-1, 1)),
    }


def test_dichotomic_extremal_transformed_bit():
    sys = load("bit-transformed").gpt_system()
    observables = dichotomic_extremal_observables(sys)
    firsts = {o.outcomes[0] for o in observables}
    assert firsts == {qvec(F(1, 2), F(1, 2)), qvec(F(-1, 2), F(1, 2))}
    for o in observables:
        assert o.total == sys.unit


def test_degenerate_effect_space_fails_upstream():
    with pytest.raises(GptValidationError):
        EffectSpace(hull_reduce([qvec(0, 0), qvec(0, 1)]))
