"""Built-in example systems with exact coordinates and expected results.

These entries anchor the regression suite: the classical bit in two
representations, its noisy and clipped restrictions, the square-state
system, the Spekkens toy model, the disc families and a 64-gon polygonal
stand-in for the disc system.  The noisy and clipped bit coordinates are
declared substitutes (the qualitative constructions have no canonical
coordinates in the literature), chosen so one keeps the full effect cone
and the other does not.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from .geometry import Polytope, hull_reduce, positive_cone, set_equal
from .linalg import parse_rational, qvec, unit_vector, zero_vector
from .observables import Observable
from .smooth import AnuBit, NoisyRebit, Rebit, discretize, smooth_classify
from .systems import (
    Classification,
    EffectSpace,
    GptClass,
    GptSystem,
    Transform,
    classify,
    noisy_effects,
    states_from_effects,
    transform_system,
    unrestricted_effects,
    validate_system,
)


class UnknownNameError(KeyError):
    pass


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    system: object  # GptSystem | SmoothFamily
    expected: GptClass
    expected_effect_map: Optional[Polytope] = None  # full effect body of S
    expected_state_map: Optional[Polytope] = None   # recovered-state body of E
    source: str = ""
    observables: dict[str, Observable] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return "polytopic" if isinstance(self.system, GptSystem) else "smooth"

    def gpt_system(self) -> GptSystem:
        if isinstance(self.system, GptSystem):
            return self.system
        raise TypeError(f"{self.name} is a smooth family without exact vertices")

    def classify(self) -> Classification:
        if self.kind == "smooth":
            return smooth_classify(self.system)
        return classify(self.gpt_system())


DEFAULT_NOISE = Fraction(1, 2)

BIT_TRANSFORM = Transform([[2, -1], [0, 1]])


def _bit() -> GalleryEntry:
    states = hull_reduce([qvec(0, 1), qvec(1, 1)])
    effects = hull_reduce([qvec(0, 0), qvec(0, 1), qvec(1, 0), qvec(-1, 1)])
    sys = validate_system(states, effects, "bit")
    return GalleryEntry(
        name="bit",
        system=sys,
        expected=GptClass.UNRESTRICTED,
        expected_effect_map=effects,
        expected_state_map=states,
        source="classical bit in fiducial-probability coordinates",
        observables={"B": Observable([qvec(-1, 1), qvec(1, 0)])},
    )


def _bit_transformed() -> GalleryEntry:
    base = _bit().system
    sys = transform_system(base, BIT_TRANSFORM, name="bit-transformed")
    body = sys.effects.polytope
    return GalleryEntry(
        name="bit-transformed",
        system=sys,
        expected=GptClass.UNRESTRICTED,
        expected_effect_map=body,
        expected_state_map=sys.states.polytope,
        source="classical bit after an invertible reparametrization",
    )


def _transformed_bit_parts():
    sys = _bit_transformed().system
    return sys.states.polytope, sys.effects.polytope, sys.unit


def _noisy_bit(p: Fraction) -> GalleryEntry:
    if not 0 < p <= 1:
        raise ValueError(f"noise parameter must be in (0, 1], got {p}")
    states, full_effects, unit = _transformed_bit_parts()
    sys = validate_system(states, noisy_effects(full_effects, unit, p), f"noisy-bit({p})")
    expected = GptClass.UNRESTRICTED if p == 1 else GptClass.NOISY_UNRESTRICTED
    return GalleryEntry(
        name=f"noisy-bit({p})",
        system=sys,
        expected=expected,
        expected_effect_map=full_effects,
        expected_state_map=states,  # effect cone is preserved, so states recover
        source="declared substitute: bit with uniformly scaled extremal effects",
    )


def _notch_bit() -> GalleryEntry:
    # Both skew corners of the bit effect body clipped away; complement
    # closure forbids clipping only one.  The clipped body loses the extreme
    # rays of the effect cone, so no rescaling brings them back.
    states, full_effects, unit = _transformed_bit_parts()
    effects = hull_reduce([
        zero_vector(2), unit, qvec(Fraction(1, 4), Fraction(1, 2)),
        qvec(Fraction(-1, 4), Fraction(1, 2)),
    ])
    sys = validate_system(states, effects, "notch-bit")
    return GalleryEntry(
        name="notch-bit",
        system=sys,
        expected=GptClass.NOT_ALMOST_NU,
        expected_effect_map=full_effects,
        expected_state_map=hull_reduce([qvec(-2, 1), qvec(2, 1)]),
        source="declared substitute: bit effect body clipped inside its cone",
    )


def _squit() -> GalleryEntry:
    states = hull_reduce([qvec(1, 1, 1), qvec(1, -1, 1), qvec(-1, 1, 1), qvec(-1, -1, 1)])
    h = Fraction(1, 2)
    effects = hull_reduce([
        zero_vector(3), unit_vector(3),
        qvec(h, 0, h), qvec(-h, 0, h), qvec(0, h, h), qvec(0, -h, h),
    ])
    sys = validate_system(states, effects, "squit")
    return GalleryEntry(
        name="squit",
        system=sys,
        expected=GptClass.UNRESTRICTED,
        expected_effect_map=effects,
        expected_state_map=states,
        source="square-state system with its full octahedral effect body",
    )


def _spekkens() -> GalleryEntry:
    verts = []
    for i in range(3):
        for s in (1, -1):
            v = [0, 0, 0, 1]
            v[i] = s
            verts.append(qvec(*v))
    states = hull_reduce(verts)
    half = Fraction(1, 2)
    effects = hull_reduce([zero_vector(4), unit_vector(4)] + [v * half for v in verts])
    sys = validate_system(states, effects, "spekkens")
    cube = hull_reduce([
        qvec(a, b, c, 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)
    ])
    cube_effects = hull_reduce(
        [zero_vector(4), unit_vector(4)] + [v * half for v in cube.vertices]
    )
    return GalleryEntry(
        name="spekkens",
        system=sys,
        expected=GptClass.NOT_ALMOST_NU,
        expected_effect_map=cube_effects,
        expected_state_map=cube,
        source="Spekkens toy model, convexified: octahedral states, "
               "octahedral effects inside the full cubic body",
    )


def _rebit_64() -> GalleryEntry:
    return GalleryEntry(
        name="rebit-64",
        system=discretize(Rebit(), 64).system,
        expected=GptClass.UNRESTRICTED,
        source="64-gon polygonal stand-in for the disc-state system",
    )


def _noisy_rebit(p: Fraction) -> GalleryEntry:
    expected = GptClass.UNRESTRICTED if p == 1 else GptClass.NOISY_UNRESTRICTED
    return GalleryEntry(
        name=f"noisy-rebit({p})",
        system=NoisyRebit(p),
        expected=expected,
        source="disc-state system with efficiency-limited measurements",
    )


# name -> (builder, whether it takes the parameter p); the one list of names.
# The smooth families without a parameter are plain data.
_TABLE = {
    "bit": (_bit, False),
    "bit-transformed": (_bit_transformed, False),
    "noisy-bit": (_noisy_bit, True),
    "notch-bit": (_notch_bit, False),
    "squit": (_squit, False),
    "spekkens": (_spekkens, False),
    "rebit-64": (_rebit_64, False),
    "rebit": (partial(GalleryEntry, "rebit", Rebit(), GptClass.UNRESTRICTED,
                      source="disc-state system (real-amplitude two-level model)"), False),
    "noisy-rebit": (_noisy_rebit, True),
    "anu-bit": (partial(GalleryEntry, "anu-bit", AnuBit(), GptClass.ALMOST_NU_ONLY,
                        source="bit restricted to a two-disc intersection; effect cone "
                               "open at its boundary rays"), False),
}

NAMES = tuple(_TABLE)

_PARAM_RE = re.compile(r"^([a-z0-9-]+)\((.+)\)$")


def load(name: str) -> GalleryEntry:
    """Look up a gallery entry; parametrized names take a rational argument,
    e.g. 'noisy-bit(1/3)', and default to p = 1/2.  A parameter given to an
    entry that takes none is an unknown name."""
    base, param = name.strip(), None
    m = _PARAM_RE.match(base)
    if m:
        base, param = m.group(1), parse_rational(m.group(2))
    if base not in _TABLE:
        raise UnknownNameError(f"unknown gallery entry {name!r}; known: {', '.join(NAMES)}")
    build, takes_p = _TABLE[base]
    if takes_p:
        return build(DEFAULT_NOISE if param is None else param)
    if param is not None:
        raise UnknownNameError(f"gallery entry {base!r} takes no parameter, got {name!r}")
    return build()


def polytopic_entries() -> list[GalleryEntry]:
    """The entries with exact vertex data (includes the 64-gon stand-in)."""
    return [e for e in all_entries() if e.kind == "polytopic"]


def all_entries() -> list[GalleryEntry]:
    return [load(n) for n in NAMES]


@dataclass
class GalleryReport:
    results: list[tuple[str, bool, str]]

    @property
    def failures(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def lines(self) -> list[str]:
        return [
            f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else "")
            for name, ok, msg in self.results
        ]


def check_entry(entry: GalleryEntry) -> tuple[bool, str]:
    problems = []
    got = entry.classify()
    if got.tag is not entry.expected:
        problems.append(f"classified {got.tag.value}, expected {entry.expected.value}")
    if entry.kind != "smooth":
        sys = entry.gpt_system()
        full = unrestricted_effects(sys.states)
        recovered = states_from_effects(sys.effects)
        if entry.expected_effect_map is not None and not set_equal(full, entry.expected_effect_map):
            problems.append("full effect body differs from expected")
        if entry.expected_state_map is not None and not set_equal(recovered, entry.expected_state_map):
            problems.append("recovered state body differs from expected")
        # cross-map coherence on every exact entry
        back = states_from_effects(EffectSpace(full, sys.unit))
        if not set_equal(back, sys.states.polytope):
            problems.append("state body does not survive the effect/state roundtrip")
        if got.tag is GptClass.NOT_ALMOST_NU:
            w = got.witness
            if w is None or not full.contains(w) or positive_cone(sys.effects.polytope).contains(w):
                problems.append("classification witness does not certify the gap")
    return (not problems, "; ".join(problems))


def run_all(names=None) -> GalleryReport:
    """Re-derive every entry's expected classification and map outputs."""
    entries = [load(n) for n in names] if names is not None else all_entries()
    results = []
    for entry in entries:
        ok, msg = check_entry(entry)
        results.append((entry.name, ok, msg))
    return GalleryReport(results)
