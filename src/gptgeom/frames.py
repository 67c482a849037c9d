"""Frame functions: probability assignments on effects, and the exact
reconstruction of the unique state a consistent assignment defines.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import DimensionMismatchError, QVec, as_fraction, as_integers, solve_exact
from .observables import Observable
from .systems import GptSystem


class InconsistentSamplesError(ValueError):
    """The sampled values admit no exact linear extension."""


class NotAStateError(ValueError):
    """A linear extension exists but is not a recoverable state."""

    def __init__(self, msg: str, vector: QVec):
        super().__init__(msg)
        self.vector = vector


class UnderDeterminedError(ValueError):
    """The sampled effects do not span the ambient space."""


class MissingSampleError(KeyError):
    pass


@dataclass(frozen=True)
class FrameSamples:
    """Finite list of (effect, value) pairs with values in [0, 1]."""

    pairs: tuple[tuple[QVec, Fraction], ...]

    def __init__(self, pairs: Sequence[tuple[Sequence, object]]):
        norm = tuple((QVec(e), as_fraction(v)) for e, v in pairs)
        for e, v in norm:
            if len(e) != len(norm[0][0]):
                raise DimensionMismatchError(
                    f"effects of length {len(norm[0][0])} and {len(e)} in one sample set")
            if v < 0 or v > 1:
                raise ValueError(f"frame-function value {v} for {e} outside [0, 1]")
        object.__setattr__(self, "pairs", norm)

    @classmethod
    def from_state(cls, sys: GptSystem, state) -> "FrameSamples":
        """Sample the linear frame function of a state on all extremal effects."""
        w = QVec(state)
        return cls([(e, e.dot(w)) for e in sys.effects.polytope.vertices])

    def value_of(self, effect: QVec) -> Fraction:
        for e, v in self.pairs:
            if e == effect:
                return v
        raise MissingSampleError(f"no sample for effect {effect}")

    def __len__(self) -> int:
        return len(self.pairs)


def recover_state(samples: FrameSamples, sys: GptSystem) -> QVec:
    """The unique vector reproducing every sampled value, verified to be a
    mathematically valid state for the system's effect space.

    This is the constructive direction of the frame-function/state
    correspondence: solve e_i . w = v_i exactly (``solve_exact`` checks
    every sample, not only a spanning subset), then check unit
    normalization and nonnegativity on every vertex of E, in vertex order,
    on integers.  A sample of another length than the system raises
    ``DimensionMismatchError``; no samples, or samples that do not span
    the space, raise ``UnderDeterminedError``.
    """
    if not samples.pairs:
        raise UnderDeterminedError("no samples: the sampled effects do not span the space")
    if len(samples.pairs[0][0]) != sys.dim:
        raise DimensionMismatchError(
            f"samples of length {len(samples.pairs[0][0])} for a system of dimension {sys.dim}")
    rows = [e for e, _ in samples.pairs]
    rhs = [v for _, v in samples.pairs]
    status, solution = solve_exact(rows, rhs)
    if status == "underdetermined":
        raise UnderDeterminedError("sampled effects do not span the space")
    if status == "inconsistent":
        raise InconsistentSamplesError("samples admit no linear frame function")
    w = solution
    if sys.unit.dot(w) != 1:
        raise NotAStateError(f"recovered vector has unit weight {sys.unit.dot(w)} != 1", w)
    wi, _ = as_integers(w)
    for e, (*x, _) in zip(sys.effects.polytope.vertices, sys.effects.polytope.rows):
        if sum(a * b for a, b in zip(x, wi)) < 0:
            raise NotAStateError(f"recovered vector gives negative value on {e}", w)
    return w


def frame_check(samples: FrameSamples, observables: Sequence[Observable]) -> bool:
    """Do the sampled values satisfy the frame-function axioms on the given
    observables?  Values must lie in [0, 1] (guaranteed at construction)
    and sum to exactly one along every observable."""
    for obs in observables:
        total = Fraction(0)
        for e in obs.outcomes:
            total += samples.value_of(e)  # raises MissingSampleError
        if total != 1:
            return False
    return True
