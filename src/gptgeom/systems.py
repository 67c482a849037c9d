"""GPT domain model: state/effect spaces, the effect/state duality maps,
and the classification that decides whether frame functions pin down states.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .geometry import (
    Cone,
    Halfspace,
    Polytope,
    UnboundedError,
    hrep_to_vrep,
    hull_reduce,
    positive_cone,
    set_equal,
)
from .linalg import (
    QVec,
    SingularMatrixError,
    as_integers,
    invert_matrix,
    matvec,
    rank,
    transpose,
    unit_vector,
    zero_vector,
)


class GptValidationError(ValueError):
    """Raised with a structured list of violated axioms."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(f"{v.code}: {v.detail}" for v in violations))


@dataclass(frozen=True)
class Violation:
    code: str  # MissingZeroOrUnit, NotComplementClosed, DoesNotSpan, ...
    detail: str


class StateSpace:
    """Compact convex state set; every state has unit probability weight.

    In the standard representation the unit functional is (0,...,0,1), so
    states carry a trailing coordinate 1.  Linearly transformed systems
    carry their own unit vector instead.
    """

    __slots__ = ("polytope", "unit")

    def __init__(self, polytope: Polytope, unit: Optional[QVec] = None):
        self.polytope = polytope
        self.unit = QVec(unit) if unit is not None else unit_vector(polytope.dim)
        bad = [v for v in polytope.vertices if self.unit.dot(v) != 1]
        if bad:
            raise GptValidationError(
                [Violation("StateNormalizationViolated",
                           f"state {bad[0]} has unit weight {self.unit.dot(bad[0])} != 1")]
            )

    @classmethod
    def from_points(cls, points: Sequence[Sequence], unit=None) -> "StateSpace":
        return cls(hull_reduce(points), unit)

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @property
    def fiducial_dim(self) -> int:
        return self.dim - 1

    def contains(self, x) -> bool:
        return self.polytope.contains(QVec(x))

    def spans_slice(self) -> bool:
        """Whether the states affinely span the unit hyperplane (minimal
        fiducial set); equivalent to E(S) being bounded."""
        return self.polytope.affine_dim() == self.dim - 1

    def __repr__(self):
        return f"StateSpace({len(self.polytope.vertices)} extremal states, R^{self.dim})"


class EffectSpace:
    """Convex effect set containing 0 and the unit, closed under complement
    and spanning the ambient space."""

    __slots__ = ("polytope", "unit")

    def __init__(self, polytope: Polytope, unit: Optional[QVec] = None):
        self.polytope = polytope
        self.unit = QVec(unit) if unit is not None else unit_vector(polytope.dim)
        violations = _effect_axioms(polytope, self.unit)
        if violations:
            raise GptValidationError(violations)

    @classmethod
    def _raw(cls, polytope: Polytope, unit: QVec) -> "EffectSpace":
        """An effect space whose axioms were already checked."""
        es = object.__new__(cls)
        es.polytope = polytope
        es.unit = unit
        return es

    @classmethod
    def from_points(cls, points: Sequence[Sequence], unit=None) -> "EffectSpace":
        return cls(hull_reduce(points), unit)

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @property
    def zero(self) -> QVec:
        return zero_vector(self.dim)

    def contains(self, x) -> bool:
        return self.polytope.contains(QVec(x))

    def complement(self, e) -> QVec:
        return self.unit - QVec(e)

    def __repr__(self):
        return f"EffectSpace({len(self.polytope.vertices)} extremal effects, R^{self.dim})"


def _effect_axioms(polytope: Polytope, unit: QVec) -> list[Violation]:
    out = []
    zero = zero_vector(polytope.dim)
    if not polytope.contains(zero) or not polytope.contains(unit):
        out.append(Violation("MissingZeroOrUnit",
                             "effect space must contain the zero and unit effects"))
    else:
        # vertices are irredundant, so P = u - P iff vert(P) = u - vert(P)
        verts = set(polytope.vertices)
        missing = next((e for e in polytope.vertices if unit - e not in verts), None)
        if missing is not None:
            out.append(Violation("NotComplementClosed",
                                 f"complement of {missing} missing"))
    if rank(polytope.vertices) < polytope.dim:
        out.append(Violation("DoesNotSpan",
                             "effects do not span the ambient space"))
    return out


@dataclass(frozen=True)
class GptSystem:
    """A validated (state space, effect space) pair."""

    states: StateSpace
    effects: EffectSpace
    name: str = ""

    @property
    def dim(self) -> int:
        return self.states.dim

    @property
    def unit(self) -> QVec:
        return self.effects.unit


def check_system(states: Polytope, effects: Polytope, unit: Optional[QVec] = None
                 ) -> list[Violation]:
    """Collect every violated axiom of the (S, E) pair without raising."""
    dim = states.dim
    u = QVec(unit) if unit is not None else unit_vector(dim)
    violations: list[Violation] = []
    if effects.dim != dim:
        return [Violation("DimensionMismatch",
                          "state and effect spaces live in different spaces")]
    for w in states.vertices:
        if u.dot(w) != 1:
            violations.append(Violation("StateNormalizationViolated",
                                         f"state {w} has unit weight {u.dot(w)}"))
            break
    violations.extend(_effect_axioms(effects, u))
    # 0 <= e.w <= 1, decided on integers: e = ie / se and w = iw / sw
    scaled_states = [as_integers(w) for w in states.vertices]
    for e in effects.vertices:
        ie, se = as_integers(e)
        for w, (iw, sw) in zip(states.vertices, scaled_states):
            p = sum(map(mul, ie, iw))
            if p < 0 or p > se * sw:
                violations.append(Violation("EffectOutOfRange",
                                             f"effect {e} gives probability {e.dot(w)} on state {w}"))
                return violations
    return violations


def validate_system(states: Polytope, effects: Polytope, name: str = "",
                    unit: Optional[QVec] = None) -> GptSystem:
    """Validate the axioms and return the system, or raise GptValidationError
    carrying one entry per violated axiom."""
    violations = check_system(states, effects, unit)
    if violations:
        raise GptValidationError(violations)
    states_space = StateSpace(states, unit)
    return GptSystem(states_space, EffectSpace._raw(effects, states_space.unit), name)


# ---------------------------------------------------------------------------
# the unrestricted-effect and state-recovery maps


def effect_constraints(states: StateSpace) -> list[Halfspace]:
    """H-description of all mathematically valid effects for S: for every
    extremal state w, 0 <= e.w <= 1.  Useful directly when the effect body
    is unbounded (states not affinely spanning)."""
    hs = []
    for w in states.polytope.vertices:
        hs.append(Halfspace(w, 0))
        hs.append(Halfspace(-w, -1))
    return hs


def unrestricted_effects(states: StateSpace) -> Polytope:
    """The largest effect space compatible with S (dual cone intersected
    with its unit-shifted reflection), as an exact polytope."""
    try:
        return hrep_to_vrep(effect_constraints(states))
    except UnboundedError:
        raise UnboundedError(
            "unrestricted effect body is unbounded: states do not affinely "
            "span the unit hyperplane (fiducial set is not minimal)"
        )


def state_constraints(effects: EffectSpace) -> list[Halfspace]:
    hs = [Halfspace(e, 0) for e in effects.polytope.vertices if not e.is_zero()]
    hs.append(Halfspace(effects.unit, 1))
    hs.append(Halfspace(-effects.unit, -1))
    return hs


def states_from_effects(effects: EffectSpace) -> Polytope:
    """All normalized vectors assigning nonnegative values to every effect;
    the state space a frame-function reconstruction can reach."""
    try:
        return hrep_to_vrep(state_constraints(effects))
    except UnboundedError:
        raise UnboundedError(
            "recovered state body is unbounded: effect space fails to span"
        )


class GptClass(enum.Enum):
    UNRESTRICTED = "Unrestricted"
    NOISY_UNRESTRICTED = "NoisyUnrestricted"
    ALMOST_NU_ONLY = "AlmostNuOnly"
    NOT_ALMOST_NU = "NotAlmostNu"


@dataclass(frozen=True)
class Classification:
    tag: GptClass
    witness: Optional[QVec] = None  # an unrestricted effect outside E^+ when NotAlmostNu
    certificate: object = None      # analytic evidence for smooth families

    @property
    def admits_gtt(self) -> bool:
        return self.tag is not GptClass.NOT_ALMOST_NU

    def describe(self) -> str:
        parts = [self.tag.value, f"admits GTT: {'yes' if self.admits_gtt else 'no'}"]
        if self.witness is not None:
            parts.append("witness: (%s)" % ", ".join(str(c) for c in self.witness))
        return "; ".join(parts)


def classify(sys: GptSystem) -> Classification:
    """Decide Unrestricted / NoisyUnrestricted / NotAlmostNu exactly.

    On the polytope backend positive cones are closed, so the almost-noisy
    relaxation coincides with the noisy class and the AlmostNuOnly tag
    cannot occur here (it is reserved for the smooth families).

    Two DD passes: one for the vertices of E(S), one for the halfspaces of
    cone(E), the dual of E's generators.  Since E lies in E(S), the cones
    are equal iff every vertex of E(S) lies in cone(E); the first vertex
    outside is the witness.
    """
    es = unrestricted_effects(sys.states)
    if set_equal(sys.effects.polytope, es):
        return Classification(GptClass.UNRESTRICTED)
    effect_cone = Cone._raw(sys.effects.polytope.vertices)
    witness = next((v for v in es.vertices if not effect_cone.contains(v)), None)
    if witness is None:
        return Classification(GptClass.NOISY_UNRESTRICTED)
    return Classification(GptClass.NOT_ALMOST_NU, witness=witness)


def admits_gtt(sys: GptSystem) -> bool:
    """Whether every frame function on E comes from a state in S.

    Computed twice: from the classification tag and from the direct
    recovered-states equality W(E) = S; the two routes must agree.
    """
    via_tag = classify(sys).admits_gtt
    via_w = set_equal(states_from_effects(sys.effects), sys.states.polytope)
    if via_tag != via_w:
        raise AssertionError(
            "classification and recovered-state check disagree; "
            "this contradicts the noisy-unrestricted characterization"
        )
    return via_tag


# ---------------------------------------------------------------------------
# equivalent representations


class Transform:
    """Invertible change of representation: states map by M, effects by the
    inverse transpose, so all outcome probabilities are preserved."""

    __slots__ = ("matrix", "inverse", "inverse_transpose")

    def __init__(self, rows: Sequence[Sequence]):
        self.matrix = tuple(QVec(r) for r in rows)
        dim = len(self.matrix)
        if any(len(r) != dim for r in self.matrix):
            raise SingularMatrixError("transform matrix must be square")
        self.inverse = invert_matrix(self.matrix)
        self.inverse_transpose = transpose(self.inverse)

    def apply_state(self, w: QVec) -> QVec:
        return matvec(self.matrix, w)

    def apply_effect(self, e: QVec) -> QVec:
        return matvec(self.inverse_transpose, e)

    def inverted(self) -> "Transform":
        return Transform(self.inverse)


def transform_system(sys: GptSystem, t: Transform, name: str = "") -> GptSystem:
    """Apply an invertible representation change to a whole system."""
    if len(t.matrix) != sys.dim:
        raise SingularMatrixError("transform dimension differs from system")
    new_states = Polytope._raw(tuple(sorted(t.apply_state(w) for w in sys.states.polytope.vertices)))
    new_effects = Polytope._raw(tuple(sorted(t.apply_effect(e) for e in sys.effects.polytope.vertices)))
    new_unit = t.apply_effect(sys.unit)
    return GptSystem(
        StateSpace(new_states, new_unit),
        EffectSpace(new_effects, new_unit),
        name or (sys.name + "-transformed" if sys.name else ""),
    )


# ---------------------------------------------------------------------------
# cone decomposition (spanning effect spaces split any vector)


def decompose_in_cone(c: QVec, effects: EffectSpace) -> tuple[QVec, QVec]:
    """Write c = a - b with both parts in the effect cone.

    Follows the interior-point construction: take the vertex centroid e of
    E (interior because E spans and is full-dimensional), shrink eps until
    e + eps*c stays in the cone, then a = (e + eps*c)/eps and b = e/eps.
    """
    c = QVec(c)
    cone = positive_cone(effects.polytope)
    e0 = effects.polytope.centroid()
    eps = Fraction(1)
    while not cone.contains(e0 + c * eps):
        eps /= 2
        if eps.denominator > 1 << 62:  # unreachable for interior e0
            raise RuntimeError("interior point search failed")
    a = (e0 + c * eps) * (1 / eps)
    b = e0 * (1 / eps)
    assert cone.contains(a) and cone.contains(b) and a - b == c
    return a, b
