"""JSON wire formats: systems, polytopes, frame samples and simulation
pipelines.  Every scalar travels as a rational string; floats are refused.
"""
from __future__ import annotations

import json
from fractions import Fraction
from .frames import FrameSamples
from .geometry import Polytope, hull_reduce
from .linalg import ExactArithmeticError, QVec, as_fraction
from .observables import Observable
from .systems import GptSystem, validate_system


class SchemaError(ValueError):
    pass


def _fits(value, shape) -> bool:
    """Does a JSON value have the shape: a type, ``[s]`` for a list of
    shape s, a tuple for a list of fixed length, or a dict of required keys
    and the shapes of their values?"""
    if isinstance(shape, type):
        return isinstance(value, shape) and not (shape is int and isinstance(value, bool))
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return (isinstance(value, list) and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    return isinstance(value, dict) and all(k in value and _fits(value[k], s)
                                           for k, s in shape.items())


def _scalar(value) -> Fraction:
    if isinstance(value, float):
        raise SchemaError(f"float {value!r} rejected: the exact backend takes rational strings")
    try:
        return as_fraction(value)
    except ExactArithmeticError as exc:
        raise SchemaError(str(exc)) from exc


def vector_from_json(coords, dim: int | None = None) -> QVec:
    if not isinstance(coords, list) or not coords:
        raise SchemaError("a vector must be a nonempty list of rational strings")
    v = QVec(_scalar(c) for c in coords)
    if dim is not None and len(v) != dim:
        raise SchemaError(f"vector {coords!r} should have {dim} coordinates")
    return v


def vector_to_json(v: QVec) -> list[str]:
    return [str(c) for c in v]


def polytope_to_json(p: Polytope) -> dict:
    return {"vertices": [vector_to_json(v) for v in p.vertices]}


def polytope_from_json(d: dict, dim: int | None = None) -> Polytope:
    if not _fits(d, {"vertices": list}) or not d["vertices"]:
        raise SchemaError("polytope object needs a nonempty 'vertices' list")
    return hull_reduce([vector_from_json(c, dim) for c in d["vertices"]])


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


def bodies_from_json(d: dict) -> tuple[Polytope, Polytope]:
    """The state and effect polytopes of a system object, not validated."""
    for key in ("dimension", "states", "effects"):
        if key not in d:
            raise SchemaError(f"system object is missing {key!r}")
    dim = d["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise SchemaError("'dimension' must be an integer >= 2 (ambient dimension)")
    bodies = []
    for key in ("states", "effects"):
        try:
            bodies.append(polytope_from_json(d[key], dim))
        except SchemaError as exc:
            raise SchemaError(f"{key!r}: {exc}") from exc
    return bodies[0], bodies[1]


def system_from_json(d: dict) -> tuple[GptSystem, dict[str, Observable]]:
    if "name" not in d:
        raise SchemaError("system object is missing 'name'")
    sys = validate_system(*bodies_from_json(d), name=str(d["name"]))
    entries = d.get("observables", [])
    if not _fits(entries, [{"label": object, "outcomes": list}]):
        raise SchemaError("'observables' must be a list of {label, outcomes} objects")
    return sys, {str(entry["label"]): Observable([vector_from_json(e, sys.dim)
                                                  for e in entry["outcomes"]])
                 for entry in entries}


def samples_to_json(samples: FrameSamples) -> dict:
    return {
        "samples": [
            {"effect": vector_to_json(e), "value": str(v)} for e, v in samples.pairs
        ]
    }


def samples_from_json(d: dict) -> FrameSamples:
    if not _fits(d, {"samples": [{"effect": object, "value": object}]}):
        raise SchemaError("frame-sample object needs a 'samples' list of {effect, value}")
    pairs = []
    for entry in d["samples"]:
        dim = len(pairs[0][0]) if pairs else None
        pairs.append((vector_from_json(entry["effect"], dim), _scalar(entry["value"])))
    return FrameSamples(pairs)


# the params of each pipeline step, in the shapes _fits reads
_STEP_FIELDS = {
    "mix": {"terms": [(str, object)], "as": str},
    "coarse": {"of": str, "blocks": [[int]], "as": str},
    "noisy": {"of": str, "p": object, "as": str},
}


def pipeline_from_json(d: dict, dim: int) -> tuple[dict[str, Observable], list, list | None]:
    """The observable table, the ``{op: params}`` steps and the ``emit``
    labels (None: all) of a pipeline object.  Labels and rationals are
    checked as the steps run."""
    obs, steps, emit = d.get("observables", {}), d.get("steps", []), d.get("emit")
    if not (isinstance(obs, dict) and _fits(list(obs.values()), [list])):
        raise SchemaError("'observables' must map each label to a list of effects")
    if not (_fits(steps, [dict]) and (emit is None or _fits(emit, [str]))):
        raise SchemaError("'steps' must be a list of objects and 'emit' a list of labels")
    for step in steps:
        op, params = next(iter(step.items()), (None, None))
        if len(step) != 1 or op not in _STEP_FIELDS or not _fits(params, _STEP_FIELDS[op]):
            raise SchemaError(f"pipeline step {step!r} is not one of "
                              f"{{'mix': {{terms, as}}}}, {{'coarse': {{of, blocks, as}}}} "
                              f"or {{'noisy': {{of, p, as}}}}")
    table = {label: Observable([vector_from_json(e, dim) for e in outcomes])
             for label, outcomes in obs.items()}
    return table, steps, emit


def dump_canonical(obj: dict) -> str:
    """Stable serialization used for roundtrip comparisons."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("the top level must be a JSON object")
    return data


def _reject_float(text: str):
    raise SchemaError(f"float literal {text} rejected: use rational strings")
