"""GPT domain model: state/effect spaces, the effect/state duality maps,
and the classification that decides whether frame functions pin down states.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .geometry import (
    EmptyIntersectionError,
    Halfspace,
    Polytope,
    SelfCheckError,
    UnboundedError,
    hrep_to_vrep,
    hull_reduce,
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

    The full effect body E(S) depends on S alone: :func:`unrestricted_effects`
    derives it on first use and keeps it in ``_effect_body``, so every later
    caller (the classification, the GTT verdict, the CLI) reads the same
    polytope.  An unbounded E(S) raises each time and is not stored.
    """

    __slots__ = ("polytope", "unit", "_effect_body")

    def __init__(self, polytope: Polytope, unit: Optional[QVec] = None):
        self.polytope = polytope
        self.unit = QVec(unit) if unit is not None else unit_vector(polytope.dim)
        self._effect_body = None
        violations = _state_axioms(polytope, self.unit)
        if violations:
            raise GptValidationError(violations)

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def contains(self, x) -> bool:
        return self.polytope.contains(QVec(x))

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

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def contains(self, x) -> bool:
        return self.polytope.contains(QVec(x))

    def __repr__(self):
        return f"EffectSpace({len(self.polytope.vertices)} extremal effects, R^{self.dim})"


def _state_axioms(polytope: Polytope, unit: QVec) -> list[Violation]:
    bad = next((w for w in polytope.vertices if unit.dot(w) != 1), None)
    if bad is None:
        return []
    return [Violation("StateNormalizationViolated",
                      f"state {bad} has unit weight {unit.dot(bad)} != 1")]


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


def _range_axiom(states: Polytope, effects: Polytope) -> list[Violation]:
    # 0 <= e.w <= 1 on every extremal pair, decided on integers: e = ie / se, w = iw / sw
    scaled_states = [as_integers(w) for w in states.vertices]
    for e in effects.vertices:
        ie, se = as_integers(e)
        for w, (iw, sw) in zip(states.vertices, scaled_states):
            p = sum(map(mul, ie, iw))
            if p < 0 or p > se * sw:
                return [Violation("EffectOutOfRange",
                                  f"effect {e} gives probability {e.dot(w)} on state {w}")]
    return []


_DIMENSION_MISMATCH = Violation("DimensionMismatch",
                                "state and effect spaces live in different spaces")


@dataclass(frozen=True)
class GptSystem:
    """A valid (state space, effect space) pair.

    Each space checks its own axioms; the constructor raises
    :class:`GptValidationError` unless the two share dimension and unit and
    every effect gives every state a probability in [0, 1].  From polytopes,
    :func:`validate_system` builds one and reports every violated axiom.

    :func:`classify` stores its result in ``_classification`` on first use;
    the field takes no part in equality, hashing or the repr, so a
    classified system compares and prints as before.
    """

    states: StateSpace
    effects: EffectSpace
    name: str = ""
    _classification: Optional["Classification"] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        s, e = self.states, self.effects
        if s.dim != e.dim:
            violations = [_DIMENSION_MISMATCH]
        elif s.unit != e.unit:
            violations = [Violation("UnitMismatch",
                                    f"state unit {s.unit} differs from effect unit {e.unit}")]
        else:
            violations = _range_axiom(s.polytope, e.polytope)
        if violations:
            raise GptValidationError(violations)

    @property
    def dim(self) -> int:
        return self.states.dim

    @property
    def unit(self) -> QVec:
        return self.effects.unit


def _system(states: StateSpace, effects: EffectSpace, name: str = "") -> GptSystem:
    """The trusted constructor: a GptSystem without the pair check, for a
    pair checked just before or valid by construction.  Its callers:
    :func:`validate_system` (after :func:`check_system`);
    :func:`transform_system` (an invertible map keeps every e.w);
    ``randomgen.random_system``, unrestricted branch (E(S) itself);
    ``smooth.discretize`` for Rebit (E(S)) and NoisyRebit (p E(S) and its
    complements), and ``smooth._discretize_anu`` (inside the bit's E(S)).
    All but :func:`validate_system` build their spaces with the checking
    ``StateSpace(...)`` and ``EffectSpace(...)``."""
    sys = object.__new__(GptSystem)
    sys.__dict__.update(states=states, effects=effects, name=name, _classification=None)
    return sys


def check_system(states: Polytope, effects: Polytope, unit: Optional[QVec] = None
                 ) -> list[Violation]:
    """Collect every violated axiom of the (S, E) pair without raising; a
    dimension mismatch is reported alone."""
    if effects.dim != states.dim:
        return [_DIMENSION_MISMATCH]
    u = QVec(unit) if unit is not None else unit_vector(states.dim)
    return _state_axioms(states, u) + _effect_axioms(effects, u) + _range_axiom(states, effects)


def validate_system(states: StateSpace | Polytope, effects: Polytope, name: str = "",
                    unit: Optional[QVec] = None) -> GptSystem:
    """Run :func:`check_system` once and return the system, or raise
    GptValidationError carrying one entry per violated axiom.  A given
    StateSpace is kept, with any E(S) stored on it; a ``unit`` other than
    its own raises."""
    space = None
    if isinstance(states, StateSpace):
        if unit is not None and QVec(unit) != states.unit:
            raise GptValidationError([Violation(
                "UnitMismatch", f"unit {QVec(unit)} differs from the state space's {states.unit}")])
        space, states, unit = states, states.polytope, states.unit
    violations = check_system(states, effects, unit)
    if violations:
        raise GptValidationError(violations)
    if space is None:
        space = StateSpace(states, unit)
    return _system(space, EffectSpace._raw(effects, space.unit), name)


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
    with its unit-shifted reflection), as an exact polytope.

    Derived once per state space and kept on it; later calls return the
    same object.
    """
    if states._effect_body is None:
        try:
            states._effect_body = hrep_to_vrep(effect_constraints(states))
        except UnboundedError:
            raise UnboundedError(
                "unrestricted effect body is unbounded: states do not affinely "
                "span the unit hyperplane (fiducial set is not minimal)"
            )
    return states._effect_body


def _cone_normals(effects: EffectSpace) -> list[tuple[int, ...]]:
    """Integer normals a of E's facets a.x >= 0 through the origin: cone(E),
    the tangent cone of E at 0, is {x : a.x >= 0 for every a}, and the
    normals generate its dual.  Read off E's kept facets; no DD pass."""
    return [h.inormal for h in effects.polytope.facets if h.ioffset == 0]


def _in_cone(x: QVec, normals: list[tuple[int, ...]]) -> bool:
    """Whether x lies in the cone {y : a.y >= 0 for every normal a}."""
    xi, _ = as_integers(x)
    return all(sum(map(mul, a, xi)) >= 0 for a in normals)


def states_from_effects(effects: EffectSpace) -> Polytope:
    """All normalized vectors assigning nonnegative values to every effect;
    the state space a frame-function reconstruction can reach.

    It is the unit-weight slice of the dual of cone(E), which the normals a
    of E's facets through 0 generate: W(E) = conv{a / (u.a)}, one hull pass
    with its integer self-check.  Empty when no u.a is positive (0 interior
    to E), unbounded when some u.a is not (E fails to span).
    """
    normals = _cone_normals(effects)
    weights = [effects.unit.dot(a) for a in normals]
    if not any(w > 0 for w in weights):
        raise EmptyIntersectionError("recovered state body is empty: 0 is interior to E")
    if any(w <= 0 for w in weights):
        raise UnboundedError("recovered state body is unbounded: effect space fails to span")
    return hull_reduce([QVec(a) * (1 / w) for a, w in zip(normals, weights)])


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

    At most one DD pass: for the vertices of E(S), unless the state space
    already holds them.  Since E lies in E(S), the cones are equal iff every
    vertex of E(S) lies in cone(E), which E's facets through 0 describe
    exactly; the first vertex outside is the witness.

    The result is stored on the system, so a second call, or
    :func:`admits_gtt` afterwards, makes no pass and returns the same object.
    """
    if sys._classification is None:
        object.__setattr__(sys, "_classification", _classify(sys))
    return sys._classification


def _classify(sys: GptSystem) -> Classification:
    es = unrestricted_effects(sys.states)
    if set_equal(sys.effects.polytope, es):
        return Classification(GptClass.UNRESTRICTED)
    normals = _cone_normals(sys.effects)
    witness = next((v for v in es.vertices if not _in_cone(v, normals)), None)
    if witness is None:
        return Classification(GptClass.NOISY_UNRESTRICTED)
    return Classification(GptClass.NOT_ALMOST_NU, witness=witness)


def admits_gtt(sys: GptSystem) -> bool:
    """Whether every frame function on E comes from a state in S.

    Computed twice: from the classification tag and from the direct
    recovered-states equality W(E) = S; the two routes must agree.  The tag
    is read from the stored classification; W(E) is deliberately not
    stored, so each call re-derives it as the hull of E's scaled facet
    normals (one DD pass) and the cross-check stays independent of every
    memo.  Both routes read E's kept facets through 0; the routes that do
    not (a DD over E's vertices, ``positive_cone``) are compared with them
    in the tests and by ``gptgeom suite``.
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
    return _system(
        StateSpace(new_states, new_unit),
        EffectSpace(new_effects, new_unit),
        name or (sys.name + "-transformed" if sys.name else ""),
    )


# ---------------------------------------------------------------------------
# cone decomposition (spanning effect spaces split any vector)


def decompose_in_cone(c: QVec, effects: EffectSpace) -> tuple[QVec, QVec]:
    """Write c = a - b with both parts in the effect cone.

    Follows the interior-point construction: the vertex centroid e of E is
    interior (E spans and is full-dimensional), so n.e > 0 for every facet
    normal n of E through 0.  The largest eps <= 1 keeping e + eps*c in the
    cone is the minimum of 1 and of n.e / -n.c over the normals with
    n.c < 0; then a = (e + eps*c)/eps and b = e/eps.
    """
    c = QVec(c)
    normals = _cone_normals(effects)
    e0 = effects.polytope.centroid()
    eps = min([Fraction(1)] + [e0.dot(n) / -c.dot(n) for n in normals if c.dot(n) < 0])
    a = (e0 + c * eps) * (1 / eps)
    b = e0 * (1 / eps)
    if not (_in_cone(a, normals) and _in_cone(b, normals) and a - b == c):
        raise SelfCheckError(f"cone decomposition of {c} is not c = a - b in the cone")
    return a, b
