"""JSON wire formats: systems, polytopes, frame samples and simulation
pipelines.  Every scalar travels as a rational string; floats are refused.
"""
from __future__ import annotations

import json
from fractions import Fraction
from .frames import FrameSamples
from .geometry import Polytope, hull_reduce
from .linalg import QVec, parse_rational
from .observables import Observable
from .systems import GptSystem, validate_system


class SchemaError(ValueError):
    pass


def _scalar(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("booleans are not rational scalars")
    if isinstance(value, float):
        raise SchemaError(
            f"float {value!r} rejected: the exact backend takes rational strings"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except Exception as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError(f"expected a rational string, got {type(value).__name__}")


def _vector(coords, dim: int | None = None) -> QVec:
    if not isinstance(coords, list) or not coords:
        raise SchemaError("a vector must be a nonempty list of rational strings")
    v = QVec(_scalar(c) for c in coords)
    if dim is not None and len(v) != dim:
        raise SchemaError(f"vector {coords!r} should have {dim} coordinates")
    return v


def vector_to_json(v: QVec) -> list[str]:
    return [str(c) for c in v]


def vector_from_json(coords, dim: int | None = None) -> QVec:
    return _vector(coords, dim)


def polytope_to_json(p: Polytope) -> dict:
    return {"vertices": [vector_to_json(v) for v in p.vertices]}


def polytope_from_json(d: dict, dim: int | None = None) -> Polytope:
    if "vertices" not in d:
        raise SchemaError("polytope object needs a 'vertices' list")
    return hull_reduce([_vector(c, dim) for c in d["vertices"]])


def observable_to_json(label: str, o: Observable) -> dict:
    return {"label": label, "outcomes": [vector_to_json(e) for e in o.outcomes]}


def system_to_json(sys: GptSystem, observables: dict[str, Observable] | None = None
                   ) -> dict:
    out = {
        "name": sys.name,
        "dimension": sys.dim,
        "states": polytope_to_json(sys.states.polytope),
        "effects": polytope_to_json(sys.effects.polytope),
    }
    if observables:
        out["observables"] = [
            observable_to_json(label, o) for label, o in sorted(observables.items())
        ]
    return out


def system_from_json(d: dict) -> tuple[GptSystem, dict[str, Observable]]:
    for key in ("name", "dimension", "states", "effects"):
        if key not in d:
            raise SchemaError(f"system object is missing {key!r}")
    dim = d["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise SchemaError("'dimension' must be an integer >= 2 (ambient dimension)")
    states = polytope_from_json(d["states"], dim)
    effects = polytope_from_json(d["effects"], dim)
    sys = validate_system(states, effects, name=str(d["name"]))
    observables: dict[str, Observable] = {}
    for entry in d.get("observables", []):
        if "label" not in entry or "outcomes" not in entry:
            raise SchemaError("each observable needs 'label' and 'outcomes'")
        observables[str(entry["label"])] = Observable(
            [_vector(e, dim) for e in entry["outcomes"]]
        )
    return sys, observables


def samples_to_json(samples: FrameSamples) -> dict:
    return {
        "samples": [
            {"effect": vector_to_json(e), "value": str(v)} for e, v in samples.pairs
        ]
    }


def samples_from_json(d: dict) -> FrameSamples:
    if "samples" not in d or not isinstance(d["samples"], list):
        raise SchemaError("frame-sample object needs a 'samples' list")
    pairs = []
    for entry in d["samples"]:
        if not isinstance(entry, dict) or "effect" not in entry or "value" not in entry:
            raise SchemaError("each sample needs 'effect' and 'value'")
        dim = len(pairs[0][0]) if pairs else None
        pairs.append((_vector(entry["effect"], dim), _scalar(entry["value"])))
    return FrameSamples(pairs)


def dump_canonical(obj: dict) -> str:
    """Stable serialization used for roundtrip comparisons."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path} should contain a JSON object")
    return data


def _reject_float(text: str):
    raise SchemaError(f"float literal {text} rejected: use rational strings")
