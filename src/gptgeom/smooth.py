"""Analytic disc-based families: the disc-state system, its noisy
restriction, and the disc-intersection restriction of the classical bit
whose effect cone fails to be closed.

All membership oracles reduce to sign tests of rational quadratics, so
they are exact on rational inputs.  Only the polygon discretization
carries approximation, and its error bound is declared, never silent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .geometry import Polytope, SelfCheckError, _iprim, _vertex_order, hull_reduce
from .linalg import DimensionMismatchError, QVec, as_fraction, qvec
from .systems import (
    Classification,
    EffectSpace,
    GptClass,
    GptSystem,
    StateSpace,
    _system,
    classify as classify_polytopic,
    noisy_effects,
    unrestricted_effects,
)


@dataclass(frozen=True)
class Rebit:
    """Disc state space in the plane of unit weight; unrestricted effects."""

    def state_contains(self, x: QVec) -> bool:
        x = _check(x, 3)
        return x[2] == 1 and x[0] ** 2 + x[1] ** 2 <= 1

    def effect_contains(self, x: QVec) -> bool:
        x = _check(x, 3)
        c = x[2]
        if c < 0 or c > 1:
            return False
        r = min(c, 1 - c)
        return x[0] ** 2 + x[1] ** 2 <= r * r


@dataclass(frozen=True)
class NoisyRebit:
    """Disc states with every dichotomic measurement capped at efficiency p.

    The extremal effects form two rings: the originals scaled by p and
    their complements; between the rings the effect body is a cylinder.
    """

    p: Fraction

    def __post_init__(self):
        p = as_fraction(self.p)
        object.__setattr__(self, "p", p)
        if not 0 < p <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {p}")

    def state_contains(self, x: QVec) -> bool:
        return Rebit().state_contains(x)

    def effect_contains(self, x: QVec) -> bool:
        x = _check(x, 3)
        return Rebit().effect_contains(x) and 4 * (x[0] ** 2 + x[1] ** 2) <= self.p ** 2


@dataclass(frozen=True)
class AnuBit:
    """Bit restriction whose effect body is the intersection of two discs
    centred at the nonunit extremal effects of the unrestricted bit.

    Radius squared 1/2 makes both disc boundaries pass through the zero
    and unit effects, so the body is complement-closed and touches the
    unrestricted cone boundary only at the origin: its positive cone is
    the open cone between the extreme bit rays (plus the origin), which
    is not closed.
    """

    def state_contains(self, x: QVec) -> bool:
        x = _check(x, 2)
        return x[1] == 1 and -1 <= x[0] <= 1

    def effect_contains(self, x: QVec) -> bool:
        x = _check(x, 2)
        a, b = x
        s = a * a + b * b
        return s <= b - a and s <= b + a

    def effect_cone_contains(self, x: QVec) -> bool:
        """Exact membership in the positive cone of the effect body."""
        x = _check(x, 2)
        a, b = x
        if a == 0 and b == 0:
            return True
        return b > a and b > -a

    def boundary_ray(self) -> QVec:
        """A ray in the closure of the effect cone but not in the cone."""
        return qvec(1, 1)


SmoothFamily = Rebit | NoisyRebit | AnuBit


def _check(x, dim: int) -> QVec:
    x = QVec(x)
    if len(x) != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}")
    return x


def membership(family: SmoothFamily, x, which: str) -> bool:
    """Exact sign-test membership in the family's state or effect body."""
    if which == "states":
        return family.state_contains(x)
    if which == "effects":
        return family.effect_contains(x)
    raise ValueError("which must be 'states' or 'effects'")


# ---------------------------------------------------------------------------
# classification with analytic certificates


@dataclass(frozen=True)
class ConeNonClosureCertificate:
    """Witness that extremal effects accumulate at zero along a ray that
    the effect cone misses.

    ``effect`` is an extremal effect with squared norm below delta**2 whose
    ray, rescaled to first coordinate 1, lies within delta of the missing
    ``boundary_ray`` (same rescaling).  All checks are exact rational
    comparisons.
    """

    delta: Fraction
    effect: QVec
    boundary_ray: QVec

    def verify(self, family: "AnuBit") -> bool:
        a, b = self.effect
        on_circle = a * a + b * b + a - b == 0  # extremal: on the disc boundary
        inside = family.effect_contains(self.effect)
        small = a * a + b * b < self.delta ** 2
        ray_missing = not family.effect_cone_contains(self.boundary_ray)
        # both rays rescaled to first coordinate 1: (1, b/a) vs (1, 1)
        gap_ok = a > 0 and abs(b / a - 1) < self.delta
        return on_circle and inside and small and ray_missing and gap_ok


def cone_nonclosure_certificate(family: AnuBit, delta) -> ConeNonClosureCertificate:
    """Produce an exact certificate for a given delta > 0.

    Points of the disc boundary through the origin are rationally
    parametrized by the chord slope t (the tangent half-angle trick for a
    circle through the origin): t -> ((t-1)/(1+t^2)) * (1, t), which tends
    to the missing ray (1, 1) as t -> 1.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = 1 + min(delta, Fraction(1)) / 2
    scale = (t - 1) / (1 + t * t)
    effect = qvec(scale, scale * t)
    cert = ConeNonClosureCertificate(delta=delta, effect=effect,
                                     boundary_ray=family.boundary_ray())
    if not cert.verify(family):
        raise SelfCheckError(f"cone non-closure certificate fails for delta {delta}")
    return cert


def smooth_classify(family: SmoothFamily) -> Classification:
    """Classification of an analytic family with an analytic certificate.

    The disc system is unrestricted; its noisy version is noisy
    unrestricted with uniform scaling witness p; the disc-intersection bit
    is almost noisy unrestricted only, certified by extremal effects
    arbitrarily close to zero whose rays approach a missing boundary ray.
    """
    if isinstance(family, Rebit):
        return Classification(GptClass.UNRESTRICTED)
    if isinstance(family, NoisyRebit):
        if family.p == 1:
            return Classification(GptClass.UNRESTRICTED)
        return Classification(GptClass.NOISY_UNRESTRICTED, certificate=family.p)
    if isinstance(family, AnuBit):
        cert = cone_nonclosure_certificate(family, Fraction(1, 100))
        return Classification(GptClass.ALMOST_NU_ONLY, certificate=cert)
    raise TypeError(f"not a smooth family: {family!r}")


# ---------------------------------------------------------------------------
# rational points on the unit circle and polygon discretization

_ANGLE_BITS = 16
VERTEX_PLACEMENT_BOUND = Fraction(1, 1 << 15)  # chord error of canonical points


def circle_point(j: int, m: int) -> tuple[Fraction, Fraction]:
    """Canonical rational point on the unit circle near angle 2*pi*j/m.

    Exact when the target point is rational (right angles); otherwise the
    tangent half-angle t = tan(pi j/m) is rounded to 2**-16 and mapped
    through t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)), which lands exactly on the
    circle within 2**-15 of the ideal vertex.  The result depends only on
    the reduced fraction j/m, so refining a polygon keeps shared vertices.
    """
    a, b, c, _ = _circle_row(j, m)
    return Fraction(a, c), Fraction(b, c)


def _circle_row(j: int, m: int) -> tuple[int, ...]:
    """The primitive row (a, b, c, c) of the state (a / c, b / c, 1) at
    :func:`circle_point` (j, m); t = N / D gives (D^2 - N^2, 2ND, D^2 + N^2)."""
    g = math.gcd(j % m, m)
    j, m = (j % m) // g, m // g
    if j == 0:
        return 1, 0, 1, 1
    if 2 * j == m:
        return -1, 0, 1, 1
    n, d = round(math.tan(math.pi * j / m) * (1 << _ANGLE_BITS)), 1 << _ANGLE_BITS
    c = d * d + n * n
    return _iprim((d * d - n * n, 2 * n * d, c, c))


def polygon_vertex_error(n: int) -> Fraction:
    """Declared bound on the distance from each polygon vertex to the ideal
    regular-polygon vertex; also bounds the polygon-to-disc gap."""
    return Fraction(7, n * n) + VERTEX_PLACEMENT_BOUND


def disc_polygon_states(n: int) -> Polytope:
    """Inscribed n-gon of the disc state space, vertices exactly on the
    circle; doubling n refines the polygon without moving old vertices.
    Distinct points of a circle are in convex position, so all are vertices:
    no hull pass, and the facets are derived only when read.  Both premises
    are checked exactly, on the points' integer rows (a, b, c, c)."""
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    rows = dict.fromkeys(_circle_row(k, n) for k in range(n))
    if len(rows) != n:
        raise SelfCheckError(f"canonical circle points of the {n}-gon coincide")
    if any(a * a + b * b != c * c for a, b, c, _ in rows):
        raise SelfCheckError(f"a canonical point of the {n}-gon is off the circle")
    vrows, pts = zip(*_vertex_order(rows))
    return Polytope._raw(pts, rows=vrows)


@dataclass(frozen=True)
class DiscretizedSystem:
    """Polygonal stand-in for a smooth family, living on the exact backend."""

    base: SmoothFamily
    n: int
    system: GptSystem
    vertex_error: Fraction

    def classify(self) -> Classification:
        return classify_polytopic(self.system)


def discretize(family: SmoothFamily, n: int) -> DiscretizedSystem:
    """Polygonal system approximating the family; classification of the
    result is exact per approximant and stabilizes as n grows."""
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if isinstance(family, AnuBit):
        return _discretize_anu(family, n)
    if not isinstance(family, (Rebit, NoisyRebit)):
        raise TypeError(f"not a smooth family: {family!r}")
    states = StateSpace(disc_polygon_states(n))
    full = unrestricted_effects(states)
    if isinstance(family, Rebit):
        sys = _system(states, EffectSpace(full), name=f"disc-polygon-{n}")
    else:
        effects = noisy_effects(full, states.unit, family.p)
        sys = _system(states, EffectSpace(effects), name=f"noisy-disc-polygon-{n}")
    return DiscretizedSystem(family, n, sys, polygon_vertex_error(n))


def _discretize_anu(family: AnuBit, n: int) -> DiscretizedSystem:
    # Right-arc samples via the chord-slope parametrization; the left arc is
    # taken as the set of complements so the hull stays complement-closed.
    # Vertices lie exactly on the smooth boundary, so no placement error.
    k = max(2, n // 2)
    unit = qvec(0, 1)
    pts = [qvec(0, 0), unit]
    for i in range(1, k):
        t = 1 + Fraction(4 * i, k)
        scale = (t - 1) / (1 + t * t)
        e = qvec(scale, scale * t)
        pts.append(e)
        pts.append(unit - e)
    states = StateSpace(hull_reduce([qvec(-1, 1), qvec(1, 1)]))
    sys = _system(states, EffectSpace(hull_reduce(pts)), name=f"disc-intersection-polygon-{n}")
    return DiscretizedSystem(family, n, sys, Fraction(0))
