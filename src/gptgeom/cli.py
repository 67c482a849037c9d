"""Command-line front end.

Exit codes: 0 success, 1 suite/gallery failures, 2 validation failure
(with a structured axiom report), 3 usage, I/O or parse errors, a malformed
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

from . import gallery as gallery_mod, randomgen
from .frames import (
    InconsistentSamplesError,
    NotAStateError,
    UnderDeterminedError,
    recover_state,
)
from .geometry import SelfCheckError, dual_cone, positive_cone, set_equal, slice_cone
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 3
        raise CliError(f"{self.prog}: {message}", 3)


def _rational(text: str) -> Fraction:
    """:func:`parse_rational` as an argparse type, so that a malformed
    literal is reported in its words rather than by the function's name."""
    try:
        return parse_rational(text)
    except ExactArithmeticError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_entry(args):
    """The gallery entry --family names at --p, and its system, or with --n
    a smooth family's discretization.  A flag the entry does not take exits 3."""
    name = args.family if args.p is None else f"{args.family}({args.p})"
    try:
        entry = gallery_mod.load(name)
    except gallery_mod.UnknownNameError as exc:
        raise CliError(exc.args[0], 3)  # str() of a KeyError quotes it
    if args.n is None:
        return entry, entry.system
    if entry.kind != "smooth":
        raise CliError(f"{entry.name} has exact vertices; --n applies only to "
                       f"smooth families", 3)
    return entry, discretize(entry.system, args.n)


def _load_system(args):
    """The system the file ``args.path`` or --family names, with the
    observables that come with it.  --p and --n apply only to --family, and
    a file given with --family exits 3."""
    if args.family:
        if args.path:
            raise CliError(f"give a system file or --family, not both: {args.path}", 3)
        entry, target = _load_entry(args)
        return target, entry.observables
    if args.p is not None or args.n is not None:
        raise CliError("--p and --n apply only to --family", 3)
    if not args.path:
        where = "--input" if args.verb == "recover" else "a system JSON path"
        raise CliError(f"no input: give {where} or --family", 3)
    try:
        return system_from_json(load_json(args.path))
    except (OSError, SchemaError) as exc:
        raise CliError(f"{args.path}: {exc}", 3)


def _exact_system(target, family, default_n=None):
    """``target`` narrowed to a GptSystem; a smooth family is discretized at
    ``default_n`` and is an input error without one."""
    if isinstance(target, SmoothFamily):
        if default_n is None:
            raise CliError(f"{family} has no exact vertices; give --n", 3)
        target = discretize(target, default_n)
    return target.system if isinstance(target, DiscretizedSystem) else target


def _load_exact_system(args, default_n=None):
    """:func:`_load_system` narrowed by :func:`_exact_system`."""
    target, extra = _load_system(args)
    return _exact_system(target, args.family, default_n), extra


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
    try:
        states, effects = bodies_from_json(load_json(args.file))
    except (OSError, SchemaError) as exc:
        raise CliError(f"{args.file}: {exc}", 3)
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
    try:
        samples = samples_from_json(load_json(args.samples))
    except (OSError, ValueError) as exc:
        raise CliError(f"{args.samples}: {exc}", 3)
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
    # the dimensions whose pictures each flag changes
    for flag, given, dims in (("--slice", args.slice is not None, (3, 4)),
                              ("--cones", args.cones, (2,)),
                              ("--float-view", args.float_view, (2, 3))):
        if given and system.dim not in dims:
            raise CliError(f"{flag} applies in dimension {' and '.join(map(str, dims))}, "
                           f"not in dimension {system.dim}", 3)
    svg = render_system(system, slice_at=Fraction(1, 2) if args.slice is None else args.slice,
                        show_cones=args.cones, float_view=args.float_view)
    _write_output(args.output, svg)
    if args.output:  # --output "" writes to stdout, as for every verb
        print(f"wrote {args.output}")
    return 0


def cmd_gallery(args) -> int:
    if not args.family:
        for name in gallery_mod.NAMES:
            print(name)
        return 0
    entry, target = _load_entry(args)
    if args.output:
        system = _exact_system(target, args.family)
        _write_output(args.output, dump_canonical(system_to_json(system, entry.observables)))
        return 0
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
    # W(E) from E's facets through 0 against the cone route over E's vertices
    w_routes = True
    for _ in range(10 if args.n is None else args.n):
        system = randomgen.random_system(rng, rng.choice([2, 3, 3, 4]))
        via_cones = slice_cone(dual_cone(positive_cone(system.effects.polytope)), system.unit, 1)
        w_routes &= set_equal(states_from_effects(system.effects), via_cones)

    agrees = True
    for entry in gallery_mod.polytopic_entries():
        try:
            admits_gtt(entry.gpt_system())  # checks the tag against W(E) = S
        except SelfCheckError:
            agrees = False

    failures = report.failures
    for ok, check in ((w_routes, "recovered state body routes agree on random systems"),
                      (agrees, "classification agrees with direct state recovery")):
        print(f"[{'PASS' if ok else 'FAIL'}] {check}")
        failures += not ok
    print("OK" if failures == 0 else f"FAILURES: {failures}")
    return 0 if failures == 0 else 1


# The arguments a verb can take: add_argument's name or flag, and its keywords.
# A verb lists an argument by its key, or as (key, keywords) to override some.
_ARGUMENTS = {
    "file": dict(metavar="path", help="system JSON file"),
    "path": dict(nargs="?", help="system JSON file (or give --family)"),
    "samples": dict(help="frame-samples JSON file"),
    "--input": dict(dest="path", help="system JSON file (or give --family)"),
    "family": dict(nargs="?", metavar="NAME", help="gallery entry (default: list them)"),
    "--family": dict(help="gallery family name instead of a file"),
    "--p": dict(type=_rational, help="noise/efficiency parameter as a rational, e.g. 1/2"),
    "--n": dict(type=int, help="polygon vertex count for discretizations"),
    "--output": dict(help="output path (default: stdout)"),
    "--pipeline": dict(required=True, help="simulation pipeline JSON"),
    "--slice": dict(type=_rational,
                    help="fixed last coordinate of 3D/4D effect plots (default 1/2)"),
    "--cones": dict(action="store_true", help="draw the state dual-cone rays (2D plots)"),
    "--float-view": dict(action="store_true",
                         help="label the effect vertices with decimals (2D/3D plots)"),
}
_SYSTEM = ("path", "--family", "--p", "--n")  # the arguments that pick a system
_VERBS = (
    ("validate", cmd_validate, "check the axioms of a system JSON file", ("file",)),
    ("classify", cmd_classify, "classify a system and report the GTT verdict", _SYSTEM),
    ("emap", cmd_emap, "compute the full effect body of the system's states",
     (*_SYSTEM, "--output")),
    ("wmap", cmd_wmap, "compute the recovered state body of the system's effects",
     (*_SYSTEM, "--output")),
    ("recover", cmd_recover, "reconstruct the state of a frame-sample file",
     ("samples", "--input", "--family", "--p", "--n")),
    ("simulate", cmd_simulate, "run mix/coarse/noisy pipelines over observables",
     (*_SYSTEM, "--pipeline", "--output")),
    ("plot", cmd_plot, "render state and effect bodies to SVG",
     (*_SYSTEM, "--slice", "--cones", "--float-view",
      ("--output", dict(default="system.svg", help="output path (default: system.svg)")))),
    ("gallery", cmd_gallery, "list, inspect or export built-in systems",
     ("family", "--p", "--n", ("--output", dict(help="export the entry's system JSON here")))),
    ("suite", cmd_suite, "run the gallery regression and property checks",
     (("--n", dict(help="number of random systems to check (default 10)")),)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each verb takes the arguments its
    ``_VERBS`` row lists, and a usage error raises :class:`CliError`.

    Built on first use and kept; ``parse_args`` returns a fresh namespace
    per call, so no call's state stays on the parser.
    """
    parser = _Parser(
        prog="gptgeom",
        description="Exact convex-geometry toolkit for general probabilistic theories",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, func, help_text, arguments in _VERBS:
        verb = sub.add_parser(name, help=help_text)
        verb.set_defaults(func=func)
        for key in arguments:
            key, keywords = (key, {}) if isinstance(key, str) else key
            verb.add_argument(key, **{**_ARGUMENTS[key], **keywords})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help printed the usage
        return exc.code
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
