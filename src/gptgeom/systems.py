"""GPT domain model: state/effect spaces, the effect/state duality maps,
and the classification that decides whether frame functions pin down states.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from typing import Optional, Sequence

from .geometry import (
    EmptyIntersectionError,
    Halfspace,
    Polytope,
    SelfCheckError,
    UnboundedError,
    _bits,
    _check_incidence,
    _idot,
    _iprim,
    _irredundant,
    _packed_incidence,
    _packed_signs,
    _vertex_order,
    hrep_to_vrep,
    set_equal,
)
from .linalg import (
    DimensionMismatchError,
    QVec,
    SingularMatrixError,
    _bareiss,
    as_integers,
    integerize,
    invert_matrix,
    matvec,
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

    @classmethod
    def _raw(cls, polytope: Polytope, unit: QVec) -> "StateSpace":
        """A state space whose axioms were already checked."""
        ss = object.__new__(cls)
        ss.polytope = polytope
        ss.unit = unit
        ss._effect_body = None
        return ss

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
    # u.w = 1 on integers: with u = iu / t and w = x / s, iu.x == t s
    if len(unit) != polytope.dim:
        raise DimensionMismatchError("unit and states live in different spaces")
    iu, t = as_integers(unit)
    bad = next((w for w, (*x, s) in zip(polytope.vertices, polytope.rows)
                if _idot(iu, x) != t * s), None)
    if bad is None:
        return []
    return [Violation("StateNormalizationViolated",
                      f"state {bad} has unit weight {unit.dot(bad)} != 1")]


def _effect_axioms(polytope: Polytope, unit: QVec) -> list[Violation]:
    """The effect axioms, decided on the vertices' primitive rows (x, s),
    each the one key of its vertex x / s: with u = U / t, the row of
    u - x / s is (s U - t x, s t) divided by its gcd.  Any dim independent
    x parts prove the span, so Bareiss runs first on dim rows spread over
    the vertex order, and on all rows only when those fall short."""
    out = []
    zero = zero_vector(polytope.dim)
    if not polytope.contains(zero) or not polytope.contains(unit):
        out.append(Violation("MissingZeroOrUnit",
                             "effect space must contain the zero and unit effects"))
    else:
        # vertices are irredundant, so P = u - P iff vert(P) = u - vert(P)
        iu, t = as_integers(unit)
        keys = set(polytope.rows)
        missing = next((e for e, r in zip(polytope.vertices, polytope.rows)
                        if _complement_key(iu, t, r) not in keys), None)
        if missing is not None:
            out.append(Violation("NotComplementClosed",
                                 f"complement of {missing} missing"))
    dim, rows = polytope.dim, [r[:-1] for r in polytope.rows]
    if all(len(_bareiss(m, dim)[0]) < dim for m in (rows[::-(-len(rows) // dim)], rows)):
        out.append(Violation("DoesNotSpan",
                             "effects do not span the ambient space"))
    return out


def _complement_key(iu: list[int], t: int, r: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive row of U / t - x / s, for the primitive row r = (x, s)."""
    *x, s = r
    return _iprim((*(s * a - t * b for a, b in zip(iu, x)), s * t))


def _range_axiom(states: Polytope, effects: Polytope) -> list[Violation]:
    # 0 <= e.w <= 1 on every pair, on the rows (ie, se) of e and (iw, sw) of w:
    # one sign pass of the rows (ie, 0), (-ie, se) against each (iw, sw), then,
    # on a failure, the loop, which names the pair
    rows = [r for *ie, se in effects.rows for r in ((*ie, 0), (*(-x for x in ie), se))]
    if all(_packed_signs(rows, states.rows)):
        return []
    for e, (*ie, se) in zip(effects.vertices, effects.rows):
        for w, (*iw, sw) in zip(states.vertices, states.rows):
            p = _idot(ie, iw)
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
    if isinstance(states, StateSpace):
        if unit is not None and QVec(unit) != states.unit:
            raise GptValidationError([Violation(
                "UnitMismatch", f"unit {QVec(unit)} differs from the state space's {states.unit}")])
        space = states
    else:
        # check_system runs the state axioms, so the space skips its own check
        space = StateSpace._raw(states, QVec(unit) if unit is not None
                                else unit_vector(states.dim))
    violations = check_system(space.polytope, effects, space.unit)
    if violations:
        raise GptValidationError(violations)
    return _system(space, EffectSpace._raw(effects, space.unit), name)


# ---------------------------------------------------------------------------
# the unrestricted-effect and state-recovery maps


def effect_constraints(states: StateSpace) -> list[Halfspace]:
    """H-description of all mathematically valid effects for S: for every
    extremal state w, 0 <= e.w <= 1.  Useful directly when the effect body
    is unbounded (states not affinely spanning).  With (x, s) the row of
    w = x / s, the primitive rows are (x / gcd(x), 0) and (-x, -s)."""
    hs = []
    for *x, s in states.polytope.rows:
        hs.append(Halfspace._from_ints(_iprim(tuple(x)), 0))
        hs.append(Halfspace._from_ints(tuple(-v for v in x), -s))
    return hs


def unrestricted_effects(states: StateSpace) -> Polytope:
    """The largest effect space compatible with S (dual cone intersected
    with its unit-shifted reflection), as an exact polytope whose kept
    facets are :func:`effect_constraints` as given; derived once per state
    space and kept on it, so later calls return the same object.

    With m = u/2, E(S) - m = Q°/2 for Q = conv(S u -S), whose vertices are
    +-w for the vertices w of S: every row is a facet, and the vertices of
    E(S) other than 0 and u are the facets of Q joining S to -S (the Cayley
    trick: Huber, Rambau & Santos, JEMS 2000).  For a polygon S (dimension
    3) :func:`_polygon_effects` reads them off with no DD pass: a vertex e
    needs three independent tight rows, and its zero set and one set
    {w : e.w = 0 or 1} are faces of S.  The zero set S gives 0, the one set
    S gives u; otherwise one set is an edge [a, b], fixing e = (a x b) /
    max_S (a x b).w or u - e.  Other dimensions make one hrep_to_vrep pass.
    """
    if states._effect_body is None:
        hs = effect_constraints(states)
        try:
            states._effect_body = (_polygon_effects(states, hs) if states.dim == 3
                                   else hrep_to_vrep(hs))
        except UnboundedError:
            raise UnboundedError(
                "unrestricted effect body is unbounded: states do not affinely "
                "span the unit hyperplane (fiducial set is not minimal)"
            )
    return states._effect_body


def _polygon_effects(states: StateSpace, hs: list[Halfspace]) -> Polytope:
    """E(S) of a polygon S in R^3 on integers (see :func:`unrestricted_effects`).
    A monotone chain orders the sorted vertices: the first, those on one side
    of the line first-last, the last, the others in reverse.  Rotating calipers
    find each edge's maximizers w, comparing c.w = c.x su / (iu.x) by cross-
    multiplying (x = w's row without s, u = iu / su).  Each vertex's mask over
    ``hs`` (row 2k: e.w_k >= 0, 2k + 1: e.w_k <= 1) is proved against every row."""
    def cross(a, b):
        return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]

    pts = [r[:-1] for r in states.polytope.rows]
    n = len(pts)
    side = [_idot(cross(pts[0], pts[-1]), x) for x in pts[1:-1]]
    if n < 3 or not all(side):
        raise UnboundedError("the states are collinear")
    order = ([0] + [k + 1 for k, d in enumerate(side) if d > 0] + [n - 1]
             + [k + 1 for k, d in reversed(list(enumerate(side))) if d < 0])
    w = [pts[k] for k in order]
    iu, su = as_integers(states.unit)
    lift = [_idot(iu, x) for x in w]  # positive, as u.w = 1
    zeros = sum(1 << 2 * k for k in range(n))
    rays = {(0, 0, 0, 1): zeros, tuple(iu) + (su,): zeros << 1}  # 0 and u
    j = 0
    for i in range(n):
        c = cross(w[(i + 1) % n], w[i])  # >= 0 on S: the chain turns as det(first, w, last) < 0
        j = max(j, i + 1)
        v, vn = _idot(c, w[j % n]), _idot(c, w[(j + 1) % n])
        while vn * lift[j % n] > v * lift[(j + 1) % n]:
            j += 1
            v, vn = vn, _idot(c, w[(j + 1) % n])
        maxima = [j] + [j + 1] * (vn * lift[j % n] == v * lift[(j + 1) % n])
        low = 1 << 2 * order[i] | 1 << 2 * order[(i + 1) % n]  # e.a = e.b = 0
        high = sum(2 << 2 * order[k % n] for k in maxima)  # e.w = 1
        lj = lift[j % n]
        rays.setdefault(_iprim(tuple(x * lj for x in c) + (su * v,)), low | high)
        rays.setdefault(_iprim(tuple(y * v - x * lj for x, y in zip(c, iu)) + (su * v,)),
                        low << 1 | high >> 1)  # u - e
    _check_incidence(list(rays.items()), [], [h.inormal + (-h.ioffset,) for h in hs], hs,
                     "homogeneous vertex {g} is misplaced against {name}")
    vrows, vertices = zip(*_vertex_order(dict.fromkeys(rays)))
    return Polytope._raw(vertices, tuple(hs), vrows)


def noisy_effects(full: Polytope, unit: QVec, p: Fraction) -> Polytope:
    """The noisy restriction of the effect body ``full``, which keeps its cone:
    the hull of 0, u, and p.e and u - p.e for every other vertex e.

    No DD pass.  As ``full`` holds 0 and is complement-closed, u - p.e =
    t + p(u - e) with t = (1 - p)u, so the hull is pE + [0, t].  The normal
    fan of that sum refines E's fan by the hyperplane t^perp alone, so each
    facet is a facet a.x >= c of E, moved to a.x >= p c + min(0, a.t), or
    the ray where t^perp crosses the normal cone of a ridge of E with
    a1.t > 0 > a2.t: (-a2.t) a1 + (a1.t) a2 at p((-a2.t) c1 + (a1.t) c2).
    Larger cones meet t^perp in no ray, so the list is complete.  Two facets
    meet in a ridge when they share dim - 1 or more vertices that no third
    facet passes through.  The vertices are the candidates
    :func:`_irredundant` keeps; :func:`_check_incidence` proves every
    candidate against every facet.  Raises ValueError unless ``full`` holds
    0 and u, is complement-closed and spans, which the identity needs.
    """
    violations = _effect_axioms(full, unit)
    if violations:
        raise ValueError("noisy_effects needs a complement-closed, full-dimensional "
                         "effect body: " + "; ".join(v.detail for v in violations))
    dim, n, pn, pd = len(unit), len(full.vertices), p.numerator, p.denominator
    iu, su = as_integers(unit)
    rows = [h.inormal + (-h.ioffset,) for h in full.facets]
    masks = [m for _, m in _packed_incidence(full.rows, rows)]  # vertices on each facet
    through = [0] * n  # facets through each vertex, the transpose of masks
    for f, m in enumerate(masks):
        for v in _bits(m):
            through[v] |= 1 << f
    at = [(pd - pn) * _idot(r[:-1], iu) for r in rows]  # pd su (a.t), all 0 when p = 1
    # (row scaled by pd su, vertices v of E whose copies p.v, p.v + t it is tight at)
    new = [(_iprim(tuple(pd * su * x for x in r[:-1]) + (pn * su * r[-1] - min(0, k),)),
            m if k >= 0 else 0, m if k <= 0 else 0) for r, k, m in zip(rows, at, masks)]
    down = sum(1 << f for f, k in enumerate(at) if k < 0)
    for f1 in (f for f, k in enumerate(at) if k > 0):
        for f2 in _bits(reduce(or_, map(through.__getitem__, _bits(masks[f1])), 0) & down):
            common = masks[f1] & masks[f2]
            if (common.bit_count() >= dim - 1 and reduce(
                    and_, map(through.__getitem__, _bits(common))) == 1 << f1 | 1 << f2):
                r = [-at[f2] * x + at[f1] * y for x, y in zip(rows[f1], rows[f2])]
                new.append((_iprim(tuple(pd * x for x in r[:-1]) + (pn * r[-1],)),
                            common, common))
    # the candidates as integer rows: copy c < n is p.v = pn x / (pd s) (v != u),
    # copy n + c is p.v + t = (pn su x + (pd - pn) s iu) / (pd s su) (v != 0)
    copies: dict[tuple[int, ...], list[int]] = {}  # each distinct candidate: its copies
    for c, (*x, s) in enumerate(full.rows):
        if x != iu or s != su:
            copies.setdefault(_iprim((*(pn * a for a in x), pd * s)), []).append(c)
        if any(x):
            copies.setdefault(_iprim((*(pn * su * a + (pd - pn) * s * b for a, b in zip(x, iu)),
                                      pd * s * su)), []).append(n + c)
    vrows, pts = zip(*_vertex_order(dict.fromkeys(copies)))
    bit = [0] * (2 * n)  # bit[c]: copy c's bit over the distinct candidates
    for i, r in enumerate(vrows):
        for c in copies[r]:
            bit[c] = 1 << i
    rays = [(g, reduce(or_, map(bit.__getitem__, _bits(lo | hi << n)), 0)) for g, lo, hi in new]
    _check_incidence(rays, [], vrows, pts)
    kept = _irredundant((m for _, m in rays), len(pts))
    return Polytope._raw(tuple(pts[i] for i in kept),
                         tuple(Halfspace._from_ints(g[:-1], -g[-1]) for g, _ in rays),
                         tuple(vrows[i] for i in kept))


def _cone_normals(effects: EffectSpace) -> list[tuple[int, ...]]:
    """Integer normals a of E's facets a.x >= 0 through the origin: cone(E),
    the tangent cone of E at 0, is {x : a.x >= 0 for every a}, and the
    normals generate its dual.  Read off E's kept facets; no DD pass."""
    return [h.inormal for h in effects.polytope.facets if h.ioffset == 0]


def states_from_effects(effects: EffectSpace) -> Polytope:
    """All normalized vectors assigning nonnegative values to every effect;
    the state space a frame-function reconstruction can reach.

    It is the unit-weight slice of the dual of cone(E), which the distinct
    normals a of E's facets through 0 generate, so W(E) = conv{a / (u.a)}.
    No DD pass: by polar duality the dual's extreme rays are the irredundant
    normals (Ziegler, Lectures on Polytopes, 1995, section 2), so every
    point a / (u.a) is a vertex, which one packed pass proves.  It checks
    a.v >= 0 for every normal a and vertex v of E, and :func:`_irredundant`
    over the vertices' tight masks must keep every normal: were a_i a
    nonnegative combination of other normals a_j, every vertex tight at a_i
    would be tight at each a_j in it.  SelfCheckError otherwise.  The
    facets of W(E) are derived on first read.  Empty when no u.a is
    positive (0 interior to E), unbounded when some u.a is not (E fails
    to span).
    """
    normals = list(dict.fromkeys(_cone_normals(effects)))
    iu, su = as_integers(effects.unit)
    weights = [_idot(iu, a) for a in normals]  # su (u.a)
    if not any(w > 0 for w in weights):
        raise EmptyIntersectionError("recovered state body is empty: 0 is interior to E")
    if any(w <= 0 for w in weights):
        raise UnboundedError("recovered state body is unbounded: effect space fails to span")
    found = list(_packed_incidence([(*a, 0) for a in normals], effects.polytope.rows))
    if not (all(valid for valid, _ in found)
            and len(_irredundant((m for _, m in found), len(normals))) == len(normals)):
        raise SelfCheckError("a normal of cone(E) is invalid on E or redundant")
    # a / (u.a) = su a / (iu.a), each normal's primitive row
    vrows, pts = zip(*_vertex_order(dict.fromkeys(
        _iprim((*(su * x for x in a), w)) for a, w in zip(normals, weights))))
    return Polytope._raw(pts, rows=vrows)


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

    At most one DD pass: for the vertices of E(S), unless S holds them or is
    a polygon.  Since E lies in E(S), the cones are equal iff every vertex of
    E(S) lies in cone(E), which E's facets through 0 describe exactly; the
    first vertex outside is the witness (one sign pass, packed with many facets).

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
    found = _packed_signs(_cone_normals(sys.effects), [r[:-1] for r in es.rows])
    witness = next((v for v, inside in zip(es.vertices, found) if not inside), None)
    if witness is None:
        return Classification(GptClass.NOISY_UNRESTRICTED)
    return Classification(GptClass.NOT_ALMOST_NU, witness=witness)


def admits_gtt(sys: GptSystem) -> bool:
    """Whether every frame function on E comes from a state in S.

    Computed twice: from the classification tag and from the direct
    recovered-states equality W(E) = S; SelfCheckError if they disagree.  The tag
    is read from the stored classification; W(E) is deliberately not
    stored, so each call re-derives it from E's facet normals through 0
    (:func:`states_from_effects`, no DD pass, one packed incidence proof)
    and the cross-check stays independent of every memo.  Both routes read
    E's kept facets through 0; the routes that do not (a DD over E's
    vertices, ``positive_cone``) are compared with them in the tests and
    by ``gptgeom suite``.
    """
    via_tag = classify(sys).admits_gtt
    via_w = set_equal(states_from_effects(sys.effects), sys.states.polytope)
    if via_tag != via_w:
        raise SelfCheckError(
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


def _image(p: Polytope, point_map, normal_map) -> Polytope:
    """p under an invertible linear map, with its known facets carried
    along as primitive integer pairs: n.x >= c becomes
    normal_map(n).x' >= c, so no DD pass is made.  Unknown facets stay
    unknown."""
    facets = None
    if p._facets is not None:
        ints = [integerize(tuple(normal_map(h.normal)) + (h.offset,)) for h in p._facets]
        facets = tuple(Halfspace._from_ints(v[:-1], v[-1]) for v in ints)
    return Polytope._raw(tuple(sorted(map(point_map, p.vertices))), facets)


def transform_system(sys: GptSystem, t: Transform, name: str = "") -> GptSystem:
    """Apply an invertible representation change to a whole system.

    States map by M and effects by M^-T, so a state facet b.w >= c maps to
    (M^-T b).w' >= c and an effect facet a.e >= c to (M a).e' >= c."""
    if len(t.matrix) != sys.dim:
        raise SingularMatrixError("transform dimension differs from system")
    new_states = _image(sys.states.polytope, t.apply_state, t.apply_effect)
    new_effects = _image(sys.effects.polytope, t.apply_effect, t.apply_state)
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
    if not (all(_packed_signs(normals, [integerize(a), integerize(b)])) and a - b == c):
        raise SelfCheckError(f"cone decomposition of {c} is not c = a - b in the cone")
    return a, b
