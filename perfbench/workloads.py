"""The four seeded workloads of the gptgeom benchmark.

A workload is one *pass*: a fixed list of operations drawn from the seed.
The harness in ``run.py`` repeats the pass until the run's time is spent,
so every run measures whole passes with the same mix of operations.  Each
operation is one public call into ``gptgeom`` (or one ``gptgeom.cli.main``
invocation) and carries an independent check of its answer, which the
harness runs outside the timed span.

Program functions are looked up through their module at call time
(``gg.classify``, ``cli_mod.main``), so the traced run's wrappers, which
replace those module attributes, see every call.

Why these four (see ``BENCHMARK.json``):

- ``cli``: the interactive path; JSON parsing, Fraction construction and
  tiny hulls dominate, the DD kernel does almost nothing.
- ``disc``: polygonal disc approximants up to n = 64; exact membership
  tests (``Polytope.contains``) dominate.
- ``restrict``: restricted systems at ambient dimension 5 and 6; the DD
  kernel ``geometry._dd`` dominates.
- ``query``: bodies built during set-up, then many reads (state recovery,
  membership, observable validity) against them.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable, Hashable

import gptgeom as gg
import gptgeom.cli as cli_mod
from gptgeom import lp


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run(ctx)`` may read results stored earlier in the
    same pass under ``key``; ``answer`` reduces the result to a hashable
    value and ``verify`` decides whether that value is correct."""

    name: str
    run: Callable[[dict], Any]
    answer: Callable[[Any], Hashable]
    verify: Callable[[Hashable], bool]
    key: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    min_passes: int  # a run makes at least this many passes ...
    tail_pct: int    # ... so that ten or more op timings lie beyond this percentile


# Sizes, kept here so the smoke test can shrink them.
CLI_SYSTEMS = ("bit", "bit-transformed", "notch-bit", "squit", "spekkens", "noisy-bit")
# Ops are kept under about a second (n = 128 takes 3-13 s an op): see the
# note on timing in run.py.
DISC_CASES = (("rebit", 16), ("noisy", 16), ("rebit", 32), ("noisy", 32), ("rebit", 64))
# (ambient dim, base seed, cuts): simplex state spaces cut by slabs around u/2.
# Fixed bases with a seeded jitter keep the per-pass cost steady across
# seeds; fully random draws vary 10x in cost at d = 6.
RESTRICT_BASES = ((6, 18, 1), (6, 13, 1), (6, 4, 1), (5, 1, 2), (5, 2, 2))
QUERY_SYSTEMS = ("bit", "squit", "spekkens", "bit-transformed", "notch-bit", "noisy-bit")
QUERY_DISC_N = 64
MIN_PASSES = {"cli": 10, "disc": 5, "restrict": 5, "query": 10}
TAIL_PCT = {"cli": 95, "disc": 90, "restrict": 90, "query": 98}


# ---------------------------------------------------------------------------
# independent exact oracles (no gptgeom code)


def _eliminate(rows):
    """Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    m = [list(r) for r in rows]
    piv_cols, r = [], 0
    ncol = len(m[0]) if m else 0
    for c in range(ncol):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def rank(vectors) -> int:
    return len(_eliminate(vectors)[1])


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def expected_recovery(samples, effects, unit) -> tuple:
    """What recovering a state from (effect, value) samples must give:
    ("state", w), ("InconsistentSamples",), ("UnderDetermined",) or
    ("NotAState",)."""
    dim = len(unit)
    m, piv = _eliminate([list(e) + [v] for e, v in samples])
    if dim in piv:
        return ("InconsistentSamples",)
    if len(piv) < dim:
        return ("UnderDetermined",)
    w = [F(0)] * dim
    for i, c in enumerate(piv):
        w[c] = m[i][-1]
    if dot(unit, w) != 1 or any(dot(e, w) < 0 for e in effects):
        return ("NotAState",)
    return ("state", tuple(w))


def in_effect_body_of(states, e) -> bool:
    """e is a valid effect for the state vertices: 0 <= e.w <= 1."""
    return all(0 <= dot(e, w) <= 1 for w in states)


def complement_closed(vertices, unit) -> bool:
    vs = {tuple(v) for v in vertices}
    return all(tuple(u - x for u, x in zip(unit, v)) in vs for v in vs)


def verts(polytope) -> tuple:
    return tuple(tuple(v) for v in polytope.vertices)


# ---------------------------------------------------------------------------
# seeded inputs


def _weights(rng, parts, total):
    """``parts`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _convex_point(rng, points):
    """A point inside the hull of ``points``.  The weights are multiples of
    1/(4 len(points)), so every seed gives numbers of the same size."""
    total = 4 * len(points)
    weights = _weights(rng, len(points), total)
    return tuple(sum((F(wt, total) * p[i] for wt, p in zip(weights, points)), F(0))
                 for i in range(len(points[0])))


def _samples(effects, w):
    return [(tuple(e), dot(e, w)) for e in effects]


def _perturbed(rng, samples, unit):
    """Shift one sampled value of a nonzero, non-unit effect, staying in [0, 1]."""
    out = list(samples)
    k = rng.choice([i for i, (e, _) in enumerate(out)
                    if any(e) and tuple(e) != tuple(unit)])
    e, v = out[k]
    d = F(1, rng.randint(5, 9))
    out[k] = (e, v + d if v + d <= 1 else v - d)
    return out


def _split(rng, effect, parts):
    """Split an effect into positive multiples summing to it, with weights
    that are multiples of 1/64."""
    return [tuple(F(wt, 64) * x for x in effect) for wt in _weights(rng, parts, 64)]


def _noise(rng):
    """A noise parameter near 1/2 with a fixed denominator: the cost of the
    noisy families grows with the size of p's numerator."""
    return F(32 + rng.choice([-3, -1, 1, 3]), 64)


def _gallery(name, rng):
    if name == "noisy-bit":
        name = f"noisy-bit({_noise(rng)})"
    return gg.gallery.load(name)


def _vec_json(v):
    return [str(x) for x in v]


def _system_json(name, sys):
    return {"name": name, "dimension": sys.dim,
            "states": {"vertices": [_vec_json(v) for v in sys.states.polytope.vertices]},
            "effects": {"vertices": [_vec_json(v) for v in sys.effects.polytope.vertices]}}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def write_bit_system(workdir: Path) -> str:
    """The classical bit as a system file, for the cold-start probe."""
    return _write(workdir / "bit.json", {
        "name": "bit", "dimension": 2,
        "states": {"vertices": [["0", "1"], ["1", "1"]]},
        "effects": {"vertices": [["0", "0"], ["0", "1"], ["1", "0"], ["-1", "1"]]}})


def _parse_vec(text):
    return tuple(F(x) for x in text.strip().strip("()").split(", "))


# ---------------------------------------------------------------------------
# cli: gptgeom.cli.main in-process, stdout captured


def _cli_run(argv):
    def run(ctx):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_mod.main(list(argv))
        return code, out.getvalue()
    return run


def _cli_op(verb, argv, verify):
    return Op(f"cli.{verb}", _cli_run(argv), lambda r: r, verify)


def _verify_classify(entry, states, effects):
    tag = entry.expected.value
    gtt = "yes" if entry.expected is not gg.GptClass.NOT_ALMOST_NU else "no"

    def verify(ans):
        code, out = ans
        parts = out.strip().split("; ")
        if code != 0 or parts[:2] != [tag, f"admits GTT: {gtt}"]:
            return False
        if gtt == "yes":
            return len(parts) == 2
        w = _parse_vec(parts[2].removeprefix("witness: "))
        return (in_effect_body_of(states, w)
                and not lp.in_cone(gg.QVec(w), [gg.QVec(e) for e in effects]))
    return verify


def _verify_body(expected):
    want = verts(expected)

    def verify(ans):
        code, out = ans
        if code != 0:
            return False
        got = tuple(tuple(F(x) for x in v) for v in json.loads(out)["vertices"])
        return got == want
    return verify


def _verify_recover(expected):
    def verify(ans):
        code, out = ans
        if expected[0] == "state":
            return code == 0 and out == "(" + ", ".join(map(str, expected[1])) + ")\n"
        return code == 2 and out.startswith(expected[0] + ":")
    return verify


def _pipeline(rng, effects, unit):
    """Noisy, mixing and coarse-graining steps over two dichotomic
    observables; returns the pipeline JSON and the outcomes it must give."""
    inner = [tuple(e) for e in effects if any(e) and tuple(e) != tuple(unit)]
    e, f = rng.choice(inner), rng.choice(inner)
    u = tuple(unit)
    comp = lambda x: tuple(a - b for a, b in zip(u, x))
    scale = lambda s, x: tuple(s * a for a in x)
    add = lambda x, y: tuple(a + b for a, b in zip(x, y))
    p, q = F(rng.randint(1, 7), 8), F(rng.randint(1, 3), 4)
    obs = {"A": [e, comp(e)], "B": [f, comp(f)]}
    obs["An"] = [scale(p, e), scale(p, comp(e)), scale(1 - p, u)]
    obs["M"] = [add(scale(q, e), scale(1 - q, f)), add(scale(q, comp(e)), scale(1 - q, comp(f)))]
    obs["C"] = [add(obs["An"][0], obs["An"][2]), obs["An"][1]]
    doc = {"observables": {k: [_vec_json(x) for x in obs[k]] for k in ("A", "B")},
           "steps": [{"noisy": {"of": "A", "p": str(p), "as": "An"}},
                     {"mix": {"terms": [["A", str(q)], ["B", str(1 - q)]], "as": "M"}},
                     {"coarse": {"of": "An", "blocks": [[0, 2], [1]], "as": "C"}}]}
    return doc, obs


def _verify_simulate(obs):
    def verify(ans):
        code, out = ans
        if code != 0:
            return False
        data = json.loads(out)
        got = {r["label"]: [tuple(F(x) for x in v) for v in r["outcomes"]]
               for r in data["results"]}
        # every combinator preserves validity of a valid observable
        return got == obs and data["valid_observable"] == {k: True for k in obs}
    return verify


def build_cli(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for i, name in enumerate(CLI_SYSTEMS):
        entry = _gallery(name, rng)
        sys = entry.gpt_system()
        states, effects = verts(sys.states.polytope), verts(sys.effects.polytope)
        unit = tuple(sys.unit)
        path = _write(workdir / f"{i}-system.json", _system_json(entry.name, sys))
        w = _convex_point(rng, states)
        good = _samples(effects, w)
        bad = _perturbed(rng, good, unit)
        good_path, bad_path = (
            _write(workdir / f"{i}-{tag}.json",
                   {"samples": [{"effect": _vec_json(e), "value": str(v)} for e, v in s]})
            for tag, s in (("good", good), ("bad", bad)))
        doc, obs = _pipeline(rng, effects, unit)
        pipe_path = _write(workdir / f"{i}-pipeline.json", doc)
        ops += [
            _cli_op("validate", ["validate", path], lambda a: a == (0, "valid\n")),
            _cli_op("classify", ["classify", path], _verify_classify(entry, states, effects)),
            _cli_op("emap", ["emap", path], _verify_body(entry.expected_effect_map)),
            _cli_op("wmap", ["wmap", path], _verify_body(entry.expected_state_map)),
            _cli_op("recover", ["recover", good_path, "--input", path],
                    _verify_recover(expected_recovery(good, effects, unit))),
            _cli_op("recover", ["recover", bad_path, "--input", path],
                    _verify_recover(expected_recovery(bad, effects, unit))),
            _cli_op("simulate", ["simulate", path, "--pipeline", pipe_path],
                    _verify_simulate(obs)),
        ]
    return Workload(ops, MIN_PASSES["cli"], TAIL_PCT["cli"])


# ---------------------------------------------------------------------------
# disc: polygonal approximants of the disc families


def _verify_discretized(n, noisy):
    def verify(ans):
        states, effects = ans
        unit = (0, 0, 1)
        on_circle = all(x * x + y * y == 1 and z == 1 for x, y, z in states)
        return (len(set(states)) == n and on_circle
                and len(effects) == (4 * n + 2 if noisy else 2 * n + 2)
                and complement_closed(effects, unit)
                and all(in_effect_body_of(states, e) for e in effects))
    return verify


def _verify_full_effects(n):
    def verify(ans):
        states, full = ans
        return (len(full) == 2 * n + 2 and complement_closed(full, (0, 0, 1))
                and all(in_effect_body_of(states, e) for e in full))
    return verify


def build_disc(rng: random.Random, workdir: Path) -> Workload:
    p = _noise(rng)
    ops = []
    for family, n in DISC_CASES:
        noisy = family == "noisy"
        fam = gg.NoisyRebit(p) if noisy else gg.Rebit()
        key = f"{family}-{n}"
        tag = gg.GptClass.NOISY_UNRESTRICTED if noisy else gg.GptClass.UNRESTRICTED
        ops += [
            Op("disc.discretize", lambda ctx, fam=fam, n=n: gg.discretize(fam, n),
               lambda ds: (verts(ds.system.states.polytope), verts(ds.system.effects.polytope)),
               _verify_discretized(n, noisy), key=key),
            Op("disc.classify", lambda ctx, key=key: gg.classify(ctx[key].system),
               lambda c: (c.tag, c.witness), lambda a, tag=tag: a == (tag, None)),
            Op("disc.admits_gtt", lambda ctx, key=key: gg.admits_gtt(ctx[key].system),
               lambda r: r, lambda a: a is True),
            Op("disc.unrestricted_effects",
               lambda ctx, key=key: (ctx[key].system.states,
                                     gg.unrestricted_effects(ctx[key].system.states)),
               lambda r: (verts(r[0].polytope), verts(r[1])), _verify_full_effects(n)),
        ]
    return Workload(ops, MIN_PASSES["disc"], TAIL_PCT["disc"])


# ---------------------------------------------------------------------------
# restrict: restricted systems through the random-generator recipe


def _rational(rng):
    return F(rng.randint(-8, 8), 4)


def _restrict_base(d, base_seed, cuts):
    """Simplex state points (last coordinate 1) and slab cuts (normal,
    half-width) of one base configuration."""
    rng = random.Random(base_seed)
    while True:
        pts = [[_rational(rng) for _ in range(d - 1)] for _ in range(d)]
        if len({p[0] for p in pts}) == d and rank([p + [1] for p in pts]) == d:
            break
    # the 1/97 keeps the slab faces off the vertices of E(S), whose
    # coordinates have small denominators, so the base is not degenerate
    slabs = [([_rational(rng) for _ in range(d)], F(rng.randint(2, 6), 8) + F(1, 97))
             for _ in range(cuts)]
    return pts, slabs


def _restrict_system(rng, d, base_seed, cuts):
    """The base configuration with every coordinate moved by a seeded
    multiple of 1/256; the state points stay affinely independent.  Moves
    of 1/64 already changed the vertex count of some bodies by 10 %."""
    pts, slabs = _restrict_base(d, base_seed, cuts)
    jit = lambda x: x + F(rng.randint(-2, 2), 256)
    while True:
        states = [tuple(jit(x) for x in p) + (F(1),) for p in pts]
        if rank(states) == d:
            break
    return states, [(tuple(jit(x) for x in n), jit(t)) for n, t in slabs]


def _cut_body(full, slabs, unit):
    """E(S)'s facets plus the slab cuts, closed under x -> u - x."""
    u = gg.QVec(unit)
    cons = list(full.facets)
    for n, t in slabs:
        n = gg.QVec(n)
        cons.append(gg.Halfspace(-n, -(n.dot(u) / 2 + t)))
    cons += [gg.Halfspace(-h.normal, h.offset - h.normal.dot(u)) for h in cons]
    return gg.hrep_to_vrep(cons)


def _restrict_ops(i, d, states, slabs):
    unit = (F(0),) * (d - 1) + (F(1),)
    zero = (F(0),) * d
    k = lambda s: f"{i}.{s}"
    in_slabs = lambda v: all(abs(dot(n, v) - dot(n, unit) / 2) <= t for n, t in slabs)

    def v_states(a):
        return a == tuple(sorted(states))

    def v_emap(a):
        # E(S) of a simplex is the parallelotope {e : W e in [0, 1]^d}
        images = {tuple(dot(w, v) for w in states) for v in a}
        return len(a) == 2 ** d and len(images) == 2 ** d and all(
            x in (0, 1) for img in images for x in img)

    def v_cut(a):
        def tight(v):
            vals = [dot(w, v) for w in states]
            return (sum(x in (0, 1) for x in vals)
                    + sum(abs(dot(n, v) - dot(n, unit) / 2) == t for n, t in slabs))
        return bool(a) and all(in_effect_body_of(states, v) and in_slabs(v)
                               and tight(v) >= d for v in a)

    def v_hull(a):
        return (zero in a and unit in a and complement_closed(a, unit)
                and all(in_effect_body_of(states, v) for v in a))

    def recovered_states(effects):
        # the dual route W(E) = S; _raw skips re-hulling vertices already reduced
        space = gg.EffectSpace(gg.Polytope._raw(tuple(gg.QVec(e) for e in effects)))
        return verts(gg.states_from_effects(space))

    def v_classify(a):
        tag, witness, effects = a
        gtt = recovered_states(effects) == tuple(sorted(states))
        if tag is gg.GptClass.UNRESTRICTED:
            return witness is None and gtt and v_emap(effects)
        if tag is gg.GptClass.NOT_ALMOST_NU:
            return (not gtt and in_effect_body_of(states, witness)
                    and not lp.in_cone(gg.QVec(witness), [gg.QVec(e) for e in effects]))
        return tag is gg.GptClass.NOISY_UNRESTRICTED and witness is None and gtt

    def v_gtt(a):
        verdict, effects = a
        return verdict == (recovered_states(effects) == tuple(sorted(states)))

    return [
        Op("restrict.states",
           lambda ctx: gg.StateSpace(gg.hull_reduce([gg.QVec(s) for s in states])),
           lambda s: verts(s.polytope), v_states, key=k("S")),
        Op("restrict.unrestricted_effects", lambda ctx: gg.unrestricted_effects(ctx[k("S")]),
           verts, v_emap, key=k("full")),
        Op("restrict.cut", lambda ctx: _cut_body(ctx[k("full")], slabs, unit),
           verts, v_cut, key=k("cut")),
        Op("restrict.hull",
           lambda ctx: gg.hull_reduce(list(ctx[k("cut")].vertices)
                                      + [gg.QVec(zero), gg.QVec(unit)]),
           verts, v_hull, key=k("E")),
        Op("restrict.validate",
           lambda ctx: gg.validate_system(ctx[k("S")].polytope, ctx[k("E")]),
           lambda s: (verts(s.states.polytope), verts(s.effects.polytope)),
           lambda a: a[0] == tuple(sorted(states)), key=k("sys")),
        Op("restrict.classify", lambda ctx: (ctx[k("sys")], gg.classify(ctx[k("sys")])),
           lambda r: (r[1].tag, r[1].witness and tuple(r[1].witness),
                      verts(r[0].effects.polytope)), v_classify),
        Op("restrict.admits_gtt", lambda ctx: (ctx[k("sys")], gg.admits_gtt(ctx[k("sys")])),
           lambda r: (r[1], verts(r[0].effects.polytope)), v_gtt),
    ]


def build_restrict(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for i, (d, base_seed, cuts) in enumerate(RESTRICT_BASES):
        states, slabs = _restrict_system(rng, d, base_seed, cuts)
        ops += _restrict_ops(i, d, states, slabs)
    return Workload(ops, MIN_PASSES["restrict"], TAIL_PCT["restrict"])


# ---------------------------------------------------------------------------
# query: bodies built once, then read many times


def _recover_op(sys, samples, expected):
    def run(ctx):
        fs = gg.FrameSamples([(gg.QVec(e), v) for e, v in samples])
        try:
            return ("state", tuple(gg.recover_state(fs, sys)))
        except (gg.InconsistentSamplesError, gg.NotAStateError, gg.UnderDeterminedError) as exc:
            return (type(exc).__name__.removesuffix("Error"),)
    return Op("query.recover_state", run, lambda r: r, lambda a: a == expected)


def _contains_op(body, point, inside):
    q = gg.QVec(point)
    return Op("query.contains", lambda ctx: body.contains(q), lambda r: r,
              lambda a: a is inside)


def _observable_op(sys, outcomes, valid):
    outs = [gg.QVec(e) for e in outcomes]
    return Op("query.is_observable", lambda ctx: gg.is_observable(outs, sys),
              lambda r: r, lambda a: a is valid)


def _outside(rng, vertices):
    """A point beyond a vertex on the ray from the vertex centroid."""
    c = tuple(sum(v[i] for v in vertices) / len(vertices) for i in range(len(vertices[0])))
    v = rng.choice(vertices)
    return tuple(ci + F(9, 8) * (vi - ci) for ci, vi in zip(c, v))


def build_query(rng: random.Random, workdir: Path) -> Workload:
    systems = [_gallery(name, rng).gpt_system() for name in QUERY_SYSTEMS]
    systems.append(gg.discretize(gg.NoisyRebit(_noise(rng)), QUERY_DISC_N).system)
    ops = []
    for i, sys in enumerate(systems):
        states, effects = verts(sys.states.polytope), verts(sys.effects.polytope)
        unit = tuple(sys.unit)
        for body in (sys.states.polytope, sys.effects.polytope):
            body.facets  # build the lazy H-representation now, not in a timed op
        for _ in range(2):
            good = _samples(effects, _convex_point(rng, states))
            bad = _perturbed(rng, good, unit)
            ops.append(_recover_op(sys, good, expected_recovery(good, effects, unit)))
            ops.append(_recover_op(sys, bad, expected_recovery(bad, effects, unit)))
        for body, vs in ((sys.states.polytope, states), (sys.effects.polytope, effects)):
            for _ in range(3):
                ops.append(_contains_op(body, _convex_point(rng, vs), True))
                ops.append(_contains_op(body, _outside(rng, vs), False))
        # valid: a dichotomic observable split into n outcomes, so all 2^n - 1
        # subsets are checked; invalid: an outcome outside E, placed first so
        # the first subset fails (placed last, the subset that fails first
        # depends on the split, and the op's cost varied 300-fold by seed)
        n = 4 + (len(systems) - 1 - i) % 7  # the disc body, with most facets, gets 4
        e = next(e for e in effects if any(e) and e != unit)
        comp = tuple(a - b for a, b in zip(unit, e))
        k = rng.randint(1, n - 1)
        ops.append(_observable_op(sys, _split(rng, e, k) + _split(rng, comp, n - k), True))
        out = _outside(rng, effects)
        rest = tuple(a - b for a, b in zip(unit, out))
        ops.append(_observable_op(sys, [out] + _split(rng, rest, n - 1), False))
    return Workload(ops, MIN_PASSES["query"], TAIL_PCT["query"])


BY_NAME = {"cli": build_cli, "disc": build_disc, "restrict": build_restrict,
            "query": build_query}
