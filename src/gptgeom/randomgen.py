"""Random valid GPT systems for the property suites.

Strategy: draw a random full-dimensional state polytope inside the unit
hyperplane, take its full effect body, then optionally shrink that body
with random cuts through interior points, restoring complement closure by
intersecting with the reflected body and re-adding the zero and unit
effects.  This produces both classes: systems that keep a full effect
cone and systems that lose it.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .geometry import (
    EmptyIntersectionError,
    Halfspace,
    Polytope,
    UnboundedError,
    hrep_to_vrep,
    hull_reduce,
)
from .linalg import QVec, zero_vector
from .systems import (
    EffectSpace,
    GptSystem,
    StateSpace,
    check_system,
    unrestricted_effects,
)


def random_fraction(rng: random.Random, lo: int = -2, hi: int = 2,
                    max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_state_space(rng: random.Random, dim: int, n_points: int | None = None
                       ) -> StateSpace:
    """Random polytope of normalized states affinely spanning its hyperplane."""
    if n_points is None:
        n_points = dim + rng.randint(1, 3)
    while True:
        pts = [
            QVec([random_fraction(rng) for _ in range(dim - 1)] + [Fraction(1)])
            for _ in range(n_points)
        ]
        poly = hull_reduce(pts)
        if poly.affine_dim() == dim - 1:
            return StateSpace(poly)


def _interior_point(rng: random.Random, poly: Polytope) -> QVec:
    weights = [Fraction(rng.randint(1, 5)) for _ in poly.vertices]
    total = sum(weights)
    acc = zero_vector(poly.dim)
    for w, v in zip(weights, poly.vertices):
        acc = acc + v * (w / total)
    return acc


def random_system(rng: random.Random, dim: int, restrict: bool | None = None,
                  max_cuts: int = 2) -> GptSystem:
    """A random valid system; restricted (shrunken effect body) roughly half
    the time unless forced."""
    while True:
        states = random_state_space(rng, dim)
        full = unrestricted_effects(states)
        if restrict is None:
            do_restrict = rng.random() < 0.5
        else:
            do_restrict = restrict
        if not do_restrict:
            return GptSystem(states, EffectSpace(full), name=f"random-{dim}d")
        effects = _shrink_effects(rng, full, states.unit, max_cuts)
        if effects is None:
            continue
        if check_system(states.polytope, effects, states.unit):
            continue  # a cut produced an invalid body (or one that does not span); redraw
        return GptSystem(states, EffectSpace._raw(effects, states.unit),
                         name=f"random-{dim}d-restricted")


def _shrink_effects(rng: random.Random, full: Polytope, unit: QVec,
                    max_cuts: int) -> Polytope | None:
    dim = full.dim
    constraints = list(full.facets)
    for _ in range(rng.randint(1, max_cuts)):
        q = _interior_point(rng, full)
        normal = QVec([random_fraction(rng) for _ in range(dim)])
        if normal.is_zero():
            continue
        constraints.append(Halfspace(-normal, -normal.dot(q)))
    # impose complement closure: intersect with the unit-reflected body
    reflected = [
        Halfspace(-h.normal, h.offset - h.normal.dot(unit)) for h in constraints
    ]
    try:
        closed = hrep_to_vrep(constraints + reflected)
    except (EmptyIntersectionError, UnboundedError):
        return None
    return hull_reduce(list(closed.vertices) + [zero_vector(dim), unit])
