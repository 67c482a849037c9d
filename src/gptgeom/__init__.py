"""gptgeom: exact convex geometry for general probabilistic theories.

The package models a system as a pair of rational polytopes (state and
effect bodies), computes the full effect body of a state space and the
recovered state body of an effect space, classifies systems by whether
frame functions are in bijection with states, and reconstructs states
from sampled outcome probabilities.  Smooth disc-based families with
non-polytopic bodies are handled by exact quadratic sign tests.
"""
from .linalg import QVec, qvec, parse_rational, unit_vector, zero_vector
from .geometry import (
    Cone,
    Halfspace,
    Polytope,
    EmptyInputError,
    EmptyIntersectionError,
    UnboundedError,
    cone_intersect,
    dual_cone,
    hull_reduce,
    hrep_to_vrep,
    positive_cone,
    set_equal,
    slice_cone,
    vrep_to_hrep,
)
from .systems import (
    Classification,
    EffectSpace,
    GptClass,
    GptSystem,
    GptValidationError,
    StateSpace,
    Transform,
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
from .observables import (
    Observable,
    coarse_grain,
    dichotomic_extremal_observables,
    is_observable,
    mix_observables,
    noisy_observable,
)
from .frames import (
    FrameSamples,
    InconsistentSamplesError,
    MissingSampleError,
    NotAStateError,
    UnderDeterminedError,
    frame_check,
    recover_state,
)
from .smooth import (
    AnuBit,
    ConeNonClosureCertificate,
    DiscretizedSystem,
    NoisyRebit,
    Rebit,
    circle_point,
    cone_nonclosure_certificate,
    discretize,
    disc_polygon_states,
    membership,
    polygon_vertex_error,
    smooth_classify,
)
from . import gallery

__all__ = [name for name in dir() if not name.startswith("_")]
