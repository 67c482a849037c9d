"""Frame-function machinery: exact recovery, rejection of bad samples,
and the observable-sum checks."""
from fractions import Fraction

import pytest

from gptgeom.frames import (
    FrameSamples,
    InconsistentSamplesError,
    MissingSampleError,
    NotAStateError,
    UnderDeterminedError,
    frame_check,
    recover_state,
)
from gptgeom.gallery import load
from gptgeom.linalg import DimensionMismatchError, QVec, qvec, zero_vector
from gptgeom.observables import Observable, dichotomic_extremal_observables
from gptgeom.smooth import NoisyRebit, discretize
from gptgeom.systems import states_from_effects

F = Fraction


@pytest.fixture(scope="module")
def bit():
    return load("bit").gpt_system()


@pytest.fixture(scope="module")
def spekkens():
    return load("spekkens").gpt_system()


def test_recover_bit_state(bit):
    samples = FrameSamples([
        (qvec(1, 0), 0),
        (qvec(F(-1, 2), F(1, 2)), F(1, 2)),
        (qvec(F(1, 2), F(1, 2)), F(1, 2)),
    ])
    assert recover_state(samples, bit) == qvec(0, 1)


def test_perturbed_samples_rejected(bit):
    samples = FrameSamples([
        (qvec(1, 0), F(1, 7)),
        (qvec(F(-1, 2), F(1, 2)), F(1, 2)),
        (qvec(F(1, 2), F(1, 2)), F(1, 2)),
    ])
    with pytest.raises((InconsistentSamplesError, NotAStateError)):
        recover_state(samples, bit)


def test_spekkens_frame_function_beyond_states(spekkens):
    # sample the linear functional of a cube corner on all extremal effects:
    # it passes every frame-function requirement yet is no octahedron state
    corner = qvec(1, 1, 1, 1)
    samples = FrameSamples.from_state(spekkens, corner)
    recovered = recover_state(samples, spekkens)
    assert recovered == corner
    assert states_from_effects(spekkens.effects).contains(recovered)
    assert not spekkens.states.contains(recovered)


def test_not_a_state(bit):
    samples = FrameSamples([(qvec(1, 0), 1), (qvec(0, 1), 0)])
    with pytest.raises(NotAStateError):
        recover_state(samples, bit)


def test_underdetermined(bit):
    samples = FrameSamples([(qvec(1, 0), 0)])
    with pytest.raises(UnderDeterminedError):
        recover_state(samples, bit)


def test_no_samples_are_underdetermined(bit):
    with pytest.raises(UnderDeterminedError):
        recover_state(FrameSamples([]), bit)


def test_samples_of_mixed_length_rejected():
    with pytest.raises(DimensionMismatchError, match="length 2 and 3"):
        FrameSamples([((1, 0), 0), ((1, 0, 0), 0)])


def test_samples_of_the_wrong_length_rejected(bit):
    samples = FrameSamples([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)])
    with pytest.raises(DimensionMismatchError, match="length 3 for a system of dimension 2"):
        recover_state(samples, bit)


def test_value_range_enforced():
    with pytest.raises(ValueError):
        FrameSamples([(qvec(1, 0), F(3, 2))])


def test_frame_check_on_sampled_state(bit, rng):
    w = qvec(F(1, 3), 1)
    base = dichotomic_extremal_observables(bit)
    observables = list(base)
    for _ in range(20):
        picks = [rng.choice(base).outcomes[0] * F(1, 2) for _ in range(2)]
        rest = bit.unit - picks[0] - picks[1]
        observables.append(Observable([picks[0], picks[1], rest]))
    effects = {e for o in observables for e in o.outcomes}
    samples = FrameSamples([(e, e.dot(w)) for e in effects])
    assert frame_check(samples, observables)


def test_frame_check_detects_violation(bit):
    samples = FrameSamples([(bit.unit, F(1, 2)), (zero_vector(2), 0)])
    assert not frame_check(samples, [Observable([bit.unit])])
    good = FrameSamples([(bit.unit, 1), (zero_vector(2), 0)])
    assert frame_check(good, [Observable([bit.unit]),
                              Observable([bit.unit, zero_vector(2)])])


def test_frame_check_missing_sample(bit):
    samples = FrameSamples([(bit.unit, 1)])
    with pytest.raises(MissingSampleError):
        frame_check(samples, [Observable([qvec(1, 0), qvec(-1, 1)])])


def test_halving_identity_on_recovered_state(bit):
    # values of a recovered state halve when effects are halved
    w = recover_state(FrameSamples.from_state(bit, qvec(F(1, 4), 1)), bit)
    for e in bit.effects.polytope.vertices:
        assert (e * F(1, 2)).dot(w) == e.dot(w) / 2


# -- recovery at scale: the 64-gon, 258 samples --------------------------------


@pytest.fixture(scope="module")
def disc64():
    return discretize(NoisyRebit(F(1, 2)), 64).system


def _interior_state(sys):
    """A convex combination of every state vertex with weights of large
    denominators, so the sampled values carry large denominators too."""
    verts = sys.states.polytope.vertices
    ws = [F(3 ** k + 1, 7 ** 20) for k in range(len(verts))]
    total = sum(ws)
    return QVec(sum(w * v[j] for w, v in zip(ws, verts)) / total for j in range(sys.dim))


def test_recover_at_scale(disc64):
    w = _interior_state(disc64)
    samples = FrameSamples.from_state(disc64, w)
    assert len(samples) == len(disc64.effects.polytope.vertices) == 258
    assert recover_state(samples, disc64) == w


def test_last_sample_changed_at_scale_is_inconsistent(disc64):
    pairs = list(FrameSamples.from_state(disc64, _interior_state(disc64)).pairs)
    e, v = pairs[-1]
    pairs[-1] = (e, v / 2 if v else F(1, 2))
    with pytest.raises(InconsistentSamplesError):
        recover_state(FrameSamples(pairs), disc64)


def test_negative_on_one_vertex_at_scale(disc64):
    # walk from an interior state along d (d . u = 0) to halfway between
    # the first and the second vertex of E whose value crosses zero there
    w0, d = _interior_state(disc64), qvec(1, 3, 0)
    assert disc64.unit.dot(d) == 0
    crossings = sorted((e.dot(w0) / -e.dot(d), e) for e in disc64.effects.polytope.vertices
                       if e.dot(d) < 0)
    (a1, first), (a2, _) = crossings[:2]
    assert a1 < a2
    w = w0 + d * ((a1 + a2) / 2)
    assert [e for e in disc64.effects.polytope.vertices if e.dot(w) < 0] == [first]
    # sampled where its values lie in [0, 1]: all but first and u - first
    samples = FrameSamples([(e, e.dot(w)) for e in disc64.effects.polytope.vertices
                            if 0 <= e.dot(w) <= 1])
    assert len(samples) == 256
    with pytest.raises(NotAStateError) as exc:
        recover_state(samples, disc64)
    assert str(exc.value) == f"recovered vector gives negative value on {first}"
    assert exc.value.vector == w
