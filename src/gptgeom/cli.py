"""Command-line front end.

Exit codes: 0 success, 1 suite/gallery failures, 2 validation failure
(with a structured axiom report), 3 I/O or parse errors, a malformed
system, sample or pipeline document among them.  ``main(argv)`` returns
the exit code and can be called repeatedly in one process: the parser is
built on the first call and reused.
"""
from __future__ import annotations

import argparse
import functools
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
from .geometry import dual_cone, positive_cone, set_equal, slice_cone
from .io import (
    SchemaError,
    bodies_from_json,
    dump_canonical,
    load_json,
    observable_to_json,
    pipeline_from_json,
    polytope_to_json,
    samples_from_json,
    system_from_json,
    system_to_json,
)
from .linalg import ExactArithmeticError, parse_rational
from .observables import (
    coarse_grain,
    is_observable,
    mix_observables,
    noisy_observable,
)
from .smooth import DiscretizedSystem, SmoothFamily, discretize, smooth_classify
from .systems import (
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


def _load_entry(args):
    """The gallery entry --family names at --p, and its system, or with --n
    a smooth family's discretization.  A flag the entry does not take exits 3."""
    name = f"{args.family}({args.p})" if args.p else args.family
    try:
        entry = gallery_mod.load(name)
    except gallery_mod.UnknownNameError as exc:
        raise CliError(str(exc), 3)
    if args.n is None:
        return entry, entry.system
    if entry.kind != "smooth":
        raise CliError(f"{entry.name} has exact vertices; --n applies only to "
                       f"smooth families", 3)
    return entry, discretize(entry.system, args.n)


def _load_system(args):
    """Resolve the target system from --family/--input/positional path,
    with the observables that come with it."""
    if args.family:
        entry, target = _load_entry(args)
        return target, entry.observables
    path = args.path or args.input
    if not path:
        raise CliError("no input: give a system JSON path or --family", 3)
    try:
        return system_from_json(load_json(path))
    except (OSError, SchemaError) as exc:
        raise CliError(f"{path}: {exc}", 3)


def _load_exact_system(args, default_n=None):
    """:func:`_load_system` narrowed to a GptSystem; a smooth family is
    discretized at ``default_n`` and is an input error without one."""
    system, extra = _load_system(args)
    if isinstance(system, SmoothFamily):
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


def _write_output(path, text: str):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc}", 3)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_validate(args) -> int:
    path = args.path or args.input
    if not path:
        raise CliError("validate needs a system JSON path", 3)
    try:
        states, effects = bodies_from_json(load_json(path))
    except (OSError, SchemaError) as exc:
        raise CliError(f"{path}: {exc}", 3)
    violations = check_system(states, effects)
    if violations:
        _print_violations(violations)
        return 2
    print("valid")
    return 0


def _describe(target) -> str:
    """The classification line of a system, smooth family or discretization."""
    if isinstance(target, SmoothFamily):
        return smooth_classify(target).describe()
    if isinstance(target, DiscretizedSystem):
        return (f"{target.classify().describe()}  [polygonal approximant n={target.n}, "
                f"vertex error <= {target.vertex_error}]")
    return classify(target).describe()


def cmd_classify(args) -> int:
    target, _ = _load_system(args)
    print(_describe(target))
    return 0


def cmd_emap(args) -> int:
    system, _ = _load_exact_system(args)
    body = unrestricted_effects(system.states)
    _write_output(args.output, dump_canonical(polytope_to_json(body)))
    return 0


def cmd_wmap(args) -> int:
    system, _ = _load_exact_system(args)
    body = states_from_effects(system.effects)
    _write_output(args.output, dump_canonical(polytope_to_json(body)))
    return 0


def cmd_recover(args) -> int:
    if not args.path:
        raise CliError("recover needs a frame-samples JSON path", 3)
    try:
        samples = samples_from_json(load_json(args.path))
    except (OSError, ValueError) as exc:
        raise CliError(f"{args.path}: {exc}", 3)
    args.path = None  # the system comes from --input/--family
    system, _ = _load_exact_system(args)
    try:
        w = recover_state(samples, system)
    except (InconsistentSamplesError, UnderDeterminedError, NotAStateError) as exc:
        print(f"{type(exc).__name__.removesuffix('Error')}: {exc}")
        return 2
    print("(" + ", ".join(str(c) for c in w) + ")")
    return 0


def cmd_simulate(args) -> int:
    system, system_obs = _load_exact_system(args)
    if not args.pipeline:
        raise CliError("simulate needs --pipeline <json>", 3)
    try:
        table, steps, emit = pipeline_from_json(load_json(args.pipeline), system.dim)
    except (OSError, SchemaError) as exc:
        raise CliError(f"{args.pipeline}: {exc}", 3)
    for label, o in system_obs.items():
        table.setdefault(label, o)
    try:
        for step in steps:
            (op, params), = step.items()
            if op == "mix":
                o = mix_observables([(table[label], w) for label, w in params["terms"]])
            elif op == "coarse":
                o = coarse_grain(table[params["of"]], params["blocks"])
            else:
                o = noisy_observable(table[params["of"]], params["p"])
            table[params["as"]] = o
        emitted = [(label, table[label]) for label in (sorted(table) if emit is None else emit)]
    except KeyError as exc:
        raise CliError(f"pipeline error: no observable labelled {exc}", 3)
    except (ValueError, ExactArithmeticError) as exc:
        raise CliError(f"pipeline error: {exc}", 3)
    out = {"results": [], "valid_observable": {}}
    for label, o in emitted:
        out["results"].append(observable_to_json(label, o))
        out["valid_observable"][label] = is_observable(o.outcomes, system)
    _write_output(args.output, dump_canonical(out))
    return 0


def cmd_plot(args) -> int:
    system, _ = _load_exact_system(args, default_n=64)
    slice_at = parse_rational(args.slice) if args.slice else Fraction(1, 2)
    svg = render_system(system, slice_at=slice_at, show_cones=args.cones,
                        float_view=args.float_view)
    out = args.output or "system.svg"
    _write_output(out, svg)
    print(f"wrote {out}")
    return 0


def cmd_gallery(args) -> int:
    if not args.path:
        for name in gallery_mod.NAMES:
            print(name)
        return 0
    args.family, args.path = args.path, None  # the positional names the entry
    if args.output:
        system, observables = _load_exact_system(args)
        _write_output(args.output, dump_canonical(system_to_json(system, observables)))
        return 0
    entry, target = _load_entry(args)
    print(f"{entry.name}: expected {entry.expected.value}")
    print(f"  source: {entry.source}")
    print(f"  {_describe(target)}")
    return 0


def cmd_suite(args) -> int:
    if args.n is not None and args.n < 0:
        raise CliError(f"--n must be nonnegative, not {args.n}", 3)
    report = gallery_mod.run_all()
    for line in report.lines():
        print(line)

    rng = random.Random(20260810)
    from .randomgen import random_system
    # W(E) from E's facets through 0 against the cone route over E's vertices
    w_routes = True
    for _ in range(10 if args.n is None else args.n):
        system = random_system(rng, rng.choice([2, 3, 3, 4]))
        via_cones = slice_cone(dual_cone(positive_cone(system.effects.polytope)), system.unit, 1)
        w_routes &= set_equal(states_from_effects(system.effects), via_cones)

    agrees = True
    for entry in gallery_mod.polytopic_entries():
        try:
            admits_gtt(entry.gpt_system())  # checks the tag against W(E) = S
        except AssertionError:
            agrees = False

    failures = report.failures
    for ok, check in ((w_routes, "recovered state body routes agree on random systems"),
                      (agrees, "classification agrees with direct state recovery")):
        print(f"[{'PASS' if ok else 'FAIL'}] {check}")
        failures += not ok
    print("OK" if failures == 0 else f"FAILURES: {failures}")
    return 0 if failures == 0 else 1


_VERBS = (
    ("validate", cmd_validate, "check the axioms of a system JSON file"),
    ("classify", cmd_classify, "classify a system and report the GTT verdict"),
    ("emap", cmd_emap, "compute the full effect body of the system's states"),
    ("wmap", cmd_wmap, "compute the recovered state body of the system's effects"),
    ("recover", cmd_recover, "reconstruct the state of a frame-sample file"),
    ("simulate", cmd_simulate, "run mix/coarse/noisy pipelines over observables"),
    ("plot", cmd_plot, "render state and effect bodies to SVG"),
    ("gallery", cmd_gallery, "list, inspect or export built-in systems"),
    ("suite", cmd_suite, "run the gallery regression and property checks"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: every verb takes the same options.

    Built on first use and kept; ``parse_args`` returns a fresh namespace
    per call, so no call's state stays on the parser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", nargs="?", help="input file (or gallery name for 'gallery')")
    common.add_argument("--input", help="input path (alternative to the positional)")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--family", help="gallery family name instead of a file")
    common.add_argument("--p", help="noise/efficiency parameter as a rational, e.g. 1/2")
    common.add_argument("--n", type=int, help="polygon vertex count for discretizations")
    common.add_argument("--slice", help="fixed last coordinate for 3D/4D effect plots")
    common.add_argument("--pipeline", help="simulation pipeline JSON (simulate)")
    common.add_argument("--cones", action="store_true", help="draw dual-cone rays (plot)")
    common.add_argument("--float-view", dest="float_view", action="store_true",
                        help="annotate plots with decimal approximations")
    parser = argparse.ArgumentParser(
        prog="gptgeom",
        description="Exact convex-geometry toolkit for general probabilistic theories",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, func, help_text in _VERBS:
        sub.add_parser(name, help=help_text, parents=[common]).set_defaults(func=func)
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
    except (ValueError, ExactArithmeticError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
