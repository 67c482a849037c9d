"""Observables (effect tuples summing to the unit) and the simulation
combinators: added noise, classical mixing and outcome coarse-graining.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .linalg import QVec, as_fraction, as_integers, zero_vector
from .systems import GptSystem


class ProbabilityOutOfRangeError(ValueError):
    pass


class WeightsNotNormalizedError(ValueError):
    pass


class InvalidPartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Observable:
    """Ordered tuple of effects; position encodes the outcome label."""

    outcomes: tuple[QVec, ...]

    def __init__(self, outcomes: Iterable[Sequence]):
        object.__setattr__(self, "outcomes", tuple(QVec(e) for e in outcomes))
        if not self.outcomes:
            raise ValueError("an observable needs at least one outcome")

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, i) -> QVec:
        return self.outcomes[i]

    @property
    def total(self) -> QVec:
        t = self.outcomes[0]
        for e in self.outcomes[1:]:
            t = t + e
        return t

    def padded(self, n: int) -> "Observable":
        """Append zero-probability outcomes up to length n."""
        if n < len(self.outcomes):
            raise ValueError("cannot pad to a shorter tuple")
        dim = self.outcomes[0].dim
        return Observable(self.outcomes + tuple(zero_vector(dim) for _ in range(n - len(self.outcomes))))


def is_observable(outcomes: Sequence[Sequence], sys: GptSystem) -> bool:
    """Exact check that the tuple sums to the unit and that every
    coarse-graining (the sum over a nonempty outcome subset) is an effect.

    One pass per facet a.x >= c of the effect body, linear in the number of
    outcomes: over the nonempty subset sums s, the least a.s is the sum of
    the negative a.e_j, or min_j a.e_j when none is negative.
    """
    effects = [QVec(e) for e in outcomes]
    total = effects[0]
    for e in effects[1:]:
        total = total + e
    if total != sys.unit:
        return False
    dim = sys.dim
    flat, s = as_integers([c for e in effects for c in e])
    ints = [flat[k:k + dim] for k in range(0, len(flat), dim)]
    for h in sys.effects.polytope.facets:
        vals = [sum(map(mul, h.inormal, xi)) for xi in ints]
        neg = sum(v for v in vals if v < 0)
        if (neg if neg < 0 else min(vals)) < h.ioffset * s:
            return False
    return True


def noisy_observable(o: Observable, p) -> Observable:
    """Measure o with efficiency p: rescale every outcome by p and collect
    the failure probability on a trailing unit outcome."""
    p = as_fraction(p)
    if not 0 < p <= 1:
        raise ProbabilityOutOfRangeError(f"efficiency must be in (0, 1], got {p}")
    unit = o.total
    return Observable(tuple(e * p for e in o.outcomes) + ((1 - p) * unit,))


def mix_observables(terms: Sequence[tuple[Observable, object]]) -> Observable:
    """Elementwise convex combination of observables (classical mixing).

    Shorter tuples are padded with zero effects first, matching the idea
    that an observable may be given outcomes that never occur.
    """
    if not terms:
        raise ValueError("nothing to mix")
    weights = [as_fraction(w) for _, w in terms]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise WeightsNotNormalizedError(
            "mixture weights must be nonnegative and sum to one"
        )
    units = {obs.total for obs, _ in terms}
    if len(units) != 1:
        raise ValueError("observables with different unit effects cannot be mixed")
    n = max(len(obs) for obs, _ in terms)
    padded = [obs.padded(n) for obs, _ in terms]
    outcomes = []
    for j in range(n):
        acc = padded[0][j] * weights[0]
        for obs, w in zip(padded[1:], weights[1:]):
            acc = acc + obs[j] * w
        outcomes.append(acc)
    return Observable(outcomes)


def coarse_grain(o: Observable, partition: Sequence[Iterable[int]]) -> Observable:
    """Merge outcome blocks: block k of the result is the sum over its
    indices.  The blocks must partition range(len(o))."""
    blocks = [sorted(set(b)) for b in partition]
    flat = [i for b in blocks for i in b]
    if sorted(flat) != list(range(len(o))) or len(flat) != len(set(flat)):
        raise InvalidPartitionError(
            f"blocks {partition!r} do not partition {len(o)} outcomes"
        )
    outcomes = []
    for b in blocks:
        if not b:
            raise InvalidPartitionError("empty block")
        s = o[b[0]]
        for i in b[1:]:
            s = s + o[i]
        outcomes.append(s)
    return Observable(outcomes)


def dichotomic_extremal_observables(sys: GptSystem) -> list[Observable]:
    """One two-outcome observable per extremal effect e (paired with its
    complement), skipping the trivial zero/unit pair."""
    out = []
    for e in sys.effects.polytope.vertices:
        if e.is_zero() or e == sys.unit:
            continue
        out.append(Observable((e, sys.unit - e)))
    return out
