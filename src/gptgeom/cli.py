"""Command-line front end.

Exit codes: 0 success, 1 suite/gallery failures, 2 validation failure
(with a structured axiom report), 3 I/O or parse errors.
"""
from __future__ import annotations

import argparse
import random
import sys as _sys
from fractions import Fraction

from . import gallery as gallery_mod
from .frames import (
    InconsistentSamplesError,
    NotAStateError,
    UnderDeterminedError,
    recover_state,
)
from .geometry import set_equal
from .io import (
    SchemaError,
    dump_canonical,
    load_json,
    observable_to_json,
    polytope_to_json,
    samples_from_json,
    system_from_json,
    system_to_json,
)
from .linalg import parse_rational
from .observables import (
    Observable,
    coarse_grain,
    is_observable,
    mix_observables,
    noisy_observable,
)
from .smooth import AnuBit, DiscretizedSystem, NoisyRebit, Rebit, discretize, smooth_classify
from .systems import (
    EffectSpace,
    GptValidationError,
    admits_gtt,
    check_system,
    classify,
    states_from_effects,
    unrestricted_effects,
)
from .svg import render_system


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_system(args):
    """Resolve the target system from --family/--input/positional path."""
    if getattr(args, "family", None):
        name = args.family
        if getattr(args, "p", None):
            name = f"{name}({args.p})"
        try:
            entry = gallery_mod.load(name)
        except gallery_mod.UnknownNameError as exc:
            raise CliError(str(exc), 3)
        if entry.kind == "smooth":
            if getattr(args, "n", None):
                return discretize(entry.system, args.n), entry
            return entry.system, entry
        return entry.gpt_system(), entry
    path = getattr(args, "path", None) or getattr(args, "input", None)
    if not path:
        raise CliError("no input: give a system JSON path or --family", 3)
    try:
        data = load_json(path)
        system, observables = system_from_json(data)
    except (OSError, SchemaError) as exc:
        raise CliError(f"{path}: {exc}", 3)
    except GptValidationError as exc:
        _print_violations(exc.violations)
        raise CliError("system failed validation", 2)
    return system, observables


def _load_exact_system(args, default_n=None):
    """:func:`_load_system` narrowed to a GptSystem; a smooth family is
    discretized at ``default_n`` and is an input error without one."""
    system, extra = _load_system(args)
    if isinstance(system, (Rebit, NoisyRebit, AnuBit)):
        if default_n is None:
            raise CliError(f"{args.family} has no exact vertices; give --n", 3)
        system = discretize(system, default_n)
    if isinstance(system, DiscretizedSystem):
        system = system.system
    return system, extra


def _print_violations(violations):
    print("validation failed:")
    for v in violations:
        print(f"  - {v.code}: {v.detail}")


def _write_output(args, text: str):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}", 3)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_validate(args) -> int:
    path = args.path or args.input
    if not path:
        raise CliError("validate needs a system JSON path", 3)
    try:
        data = load_json(path)
    except (OSError, SchemaError) as exc:
        raise CliError(f"cannot read {path}: {exc}", 3)
    from .io import polytope_from_json
    try:
        dim = data.get("dimension")
        states = polytope_from_json(data["states"], dim)
        effects = polytope_from_json(data["effects"], dim)
    except (KeyError, SchemaError) as exc:
        raise CliError(f"schema error: {exc}", 3)
    violations = check_system(states, effects)
    if violations:
        _print_violations(violations)
        return 2
    print("valid")
    return 0


def cmd_classify(args) -> int:
    target, _ = _load_system(args)
    if isinstance(target, (Rebit, NoisyRebit, AnuBit)):
        result = smooth_classify(target)
        print(result.describe())
        return 0
    if isinstance(target, DiscretizedSystem):
        result = target.classify()
        print(f"{result.describe()}  [polygonal approximant n={target.n}, "
              f"vertex error <= {target.vertex_error}]")
        return 0
    result = classify(target)
    print(result.describe())
    return 0


def cmd_emap(args) -> int:
    system, _ = _load_exact_system(args)
    body = unrestricted_effects(system.states)
    _write_output(args, dump_canonical(polytope_to_json(body)))
    return 0


def cmd_wmap(args) -> int:
    system, _ = _load_exact_system(args)
    body = states_from_effects(system.effects)
    _write_output(args, dump_canonical(polytope_to_json(body)))
    return 0


def cmd_recover(args) -> int:
    if not args.path:
        raise CliError("recover needs a frame-samples JSON path", 3)
    try:
        samples = samples_from_json(load_json(args.path))
    except OSError as exc:
        raise CliError(f"cannot read {args.path}: {exc}", 3)
    except (SchemaError, ValueError) as exc:
        raise CliError(f"bad samples: {exc}", 3)
    args.path = None  # the system comes from --input/--family
    system, _ = _load_exact_system(args)
    try:
        w = recover_state(samples, system)
    except (InconsistentSamplesError, UnderDeterminedError, NotAStateError) as exc:
        print(f"{type(exc).__name__.removesuffix('Error')}: {exc}")
        return 2
    print("(" + ", ".join(str(c) for c in w) + ")")
    return 0


def _parse_pipeline_steps(data, dim):
    from .io import vector_from_json
    observables = {}
    for label, outcomes in data.get("observables", {}).items():
        observables[str(label)] = Observable([vector_from_json(e, dim) for e in outcomes])
    steps = data.get("steps", [])
    emit = data.get("emit")
    return observables, steps, emit


def cmd_simulate(args) -> int:
    system, loaded_obs = _load_exact_system(args)
    if not args.pipeline:
        raise CliError("simulate needs --pipeline <json>", 3)
    try:
        data = load_json(args.pipeline)
    except (OSError, SchemaError) as exc:
        raise CliError(f"cannot read {args.pipeline}: {exc}", 3)
    try:
        table, steps, emit = _parse_pipeline_steps(data, system.dim)
    except SchemaError as exc:
        raise CliError(str(exc), 3)
    if isinstance(loaded_obs, dict):
        for label, o in loaded_obs.items():
            table.setdefault(label, o)
    try:
        for step in steps:
            (op, params), = step.items()
            out_label = params["as"]
            if op == "mix":
                terms = [(table[l], parse_rational(w)) for l, w in params["terms"]]
                table[out_label] = mix_observables(terms)
            elif op == "coarse":
                table[out_label] = coarse_grain(table[params["of"]], params["blocks"])
            elif op == "noisy":
                table[out_label] = noisy_observable(table[params["of"]], parse_rational(params["p"]))
            else:
                raise CliError(f"unknown pipeline step {op!r}", 3)
    except (KeyError, ValueError) as exc:
        raise CliError(f"pipeline error: {exc}", 3)
    labels = emit if emit is not None else sorted(table)
    out = {"results": [], "valid_observable": {}}
    for label in labels:
        o = table[label]
        out["results"].append(observable_to_json(label, o))
        if len(o) <= 16:
            out["valid_observable"][label] = is_observable(o.outcomes, system)
    _write_output(args, dump_canonical(out))
    return 0


def cmd_plot(args) -> int:
    system, _ = _load_exact_system(args, default_n=64)
    slice_at = parse_rational(args.slice) if args.slice else Fraction(1, 2)
    svg = render_system(system, slice_at=slice_at, show_cones=args.cones,
                        float_view=args.float_view)
    out = args.output or "system.svg"
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}", 3)
    print(f"wrote {out}")
    return 0


def cmd_gallery(args) -> int:
    if not args.path:
        for name in gallery_mod.NAMES:
            print(name)
        return 0
    try:
        entry = gallery_mod.load(args.path)
    except gallery_mod.UnknownNameError as exc:
        raise CliError(str(exc), 3)
    if args.output:
        if entry.kind == "smooth":
            raise CliError(f"{entry.name} has no exact vertices to export; "
                           f"use --n to export a discretization", 3)
        text = dump_canonical(system_to_json(entry.gpt_system(), entry.observables))
        _write_output(args, text)
        return 0
    print(f"{entry.name}: expected {entry.expected.value}")
    print(f"  source: {entry.source}")
    print(f"  {entry.classify().describe()}")
    return 0


def cmd_suite(args) -> int:
    failures = 0
    report = gallery_mod.run_all()
    for line in report.lines():
        print(line)
    failures += report.failures

    rng = random.Random(20260810)
    from .randomgen import random_system
    ok = True
    for _ in range(args.n or 10):
        dim = rng.choice([2, 3, 3, 4])
        system = random_system(rng, dim)
        full = unrestricted_effects(system.states)
        if not set_equal(states_from_effects(EffectSpace(full, system.unit)),
                         system.states.polytope):
            ok = False
    print(f"[{'PASS' if ok else 'FAIL'}] effect/state roundtrip on random systems")
    failures += 0 if ok else 1

    ok = True
    for entry in gallery_mod.polytopic_entries():
        try:
            admits_gtt(entry.gpt_system())  # checks the tag against W(E) = S
        except AssertionError:
            ok = False
    print(f"[{'PASS' if ok else 'FAIL'}] classification agrees with direct state recovery")
    failures += 0 if ok else 1

    print(f"{'OK' if failures == 0 else 'FAILURES: %d' % failures}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptgeom",
        description="Exact convex-geometry toolkit for general probabilistic theories",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", nargs="?", help="input file (or gallery name for 'gallery')")
        p.add_argument("--input", help="input path (alternative to the positional)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--family", help="gallery family name instead of a file")
        p.add_argument("--p", help="noise/efficiency parameter as a rational, e.g. 1/2")
        p.add_argument("--n", type=int, help="polygon vertex count for discretizations")
        p.add_argument("--slice", help="fixed last coordinate for 3D/4D effect plots")
        p.add_argument("--pipeline", help="simulation pipeline JSON (simulate)")
        p.add_argument("--cones", action="store_true", help="draw dual-cone rays (plot)")
        p.add_argument("--float-view", dest="float_view", action="store_true",
                       help="annotate plots with decimal approximations")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the axioms of a system JSON file")
    add("classify", cmd_classify, "classify a system and report the GTT verdict")
    add("emap", cmd_emap, "compute the full effect body of the system's states")
    add("wmap", cmd_wmap, "compute the recovered state body of the system's effects")
    add("recover", cmd_recover, "reconstruct the state of a frame-sample file")
    add("simulate", cmd_simulate, "run mix/coarse/noisy pipelines over observables")
    add("plot", cmd_plot, "render state and effect bodies to SVG")
    add("gallery", cmd_gallery, "list, inspect or export built-in systems")
    add("suite", cmd_suite, "run the gallery regression and property checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return exc.code
    except GptValidationError as exc:
        _print_violations(exc.violations)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
