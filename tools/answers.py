"""Print the exact answers of a fixed corpus, one line each, and their sha256.

    python3 tools/answers.py --corpus quick
    python3 tools/answers.py --corpus full > answers.tsv

Each answer is one line ``entry<TAB>field<TAB>value``; the last line is
``# sha256 <digest>`` over all answer lines, each ending in a newline.  Two
revisions give the same answers exactly when they print the same digest, so
"same answers" is one command, and ``diff`` of two outputs lists the lines
that changed.  Run it from the repository root; it imports ``gptgeom`` from
``src/``.

The answers, per system: the vertex tuples of S, E, E(S) and W(E); E(S)'s
kept facets in order (``hrep_to_vrep`` documents that order); the facet
*set* of S, E and W(E); the ``check_system`` violations of (S, E), of
(S, 3/2 E) and of (2 S, E); the tag and witness of ``classify`` and
``admits_gtt``; ``decompose_in_cone`` of (1, 0, ..., 0) and of
(1, -2, 3, ...); and the state ``recover_state`` gives for the samples of
S's centroid and of W(E)'s first vertex.
Per noisy body, its vertex tuple and facet set.  Per gallery entry, the
stdout of ``gptgeom classify``, ``emap`` and ``wmap``.  The facet order of
hulls and of the noisy body is not an answer: no reader of a facet list
depends on it.  A facet prints as its primitive integer pair, ``a >= c``.

The corpus: the polytopic gallery; ``discretize`` of Rebit,
NoisyRebit(1/2), NoisyRebit(29/64) and AnuBit at n = 16, 17, 24, 32, 50,
64, 100 and 128; ``random_system(Random(1000 d + s), d)`` for d = 2 ... 5
and s < 80 (full) or s < 5 (quick); in full, also the noisy body of 320
random E(S).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gptgeom import cli  # noqa: E402
from gptgeom.frames import FrameSamples, recover_state  # noqa: E402
from gptgeom.gallery import polytopic_entries  # noqa: E402
from gptgeom.geometry import Halfspace, Polytope  # noqa: E402
from gptgeom.linalg import QVec  # noqa: E402
from gptgeom.randomgen import random_state_space, random_system  # noqa: E402
from gptgeom.smooth import AnuBit, NoisyRebit, Rebit, discretize  # noqa: E402
from gptgeom.systems import (  # noqa: E402
    admits_gtt,
    check_system,
    classify,
    decompose_in_cone,
    noisy_effects,
    states_from_effects,
    unrestricted_effects,
)

DISC_FAMILIES = (("rebit", Rebit()), ("noisy-rebit(1/2)", NoisyRebit(Fraction(1, 2))),
                 ("noisy-rebit(29/64)", NoisyRebit(Fraction(29, 64))), ("anu-bit", AnuBit()))
DISC_N = (16, 17, 24, 32, 50, 64, 100, 128)
SEEDS = {"quick": 5, "full": 80}
NOISY_BODIES = 320


def _vec(v) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _vecs(vs) -> str:
    return " ".join(map(_vec, vs))


def _facet(h: Halfspace) -> str:
    return f"{' '.join(map(str, h.inormal))} >= {h.ioffset}"


def _facet_set(p: Polytope) -> str:
    return " | ".join(sorted(map(_facet, p.facets)))


def _violations(violations) -> str:
    return "; ".join(f"{v.code}: {v.detail}" for v in violations) or "none"


def _attempt(call) -> str:
    """The answer of call(), or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def system_answers(sys_):
    """(field, value) pairs of one system."""
    s, e, u = sys_.states.polytope, sys_.effects.polytope, sys_.unit
    full = unrestricted_effects(sys_.states)
    w = states_from_effects(sys_.effects)
    yield "S.vertices", _vecs(s.vertices)
    yield "S.facets", _facet_set(s)
    yield "E.vertices", _vecs(e.vertices)
    yield "E.facets", _facet_set(e)
    yield "ES.vertices", _vecs(full.vertices)
    yield "ES.kept_facets", " | ".join(map(_facet, full.facets))
    yield "W.vertices", _vecs(w.vertices)
    yield "W.facets", _facet_set(w)
    wider = Polytope._raw(tuple(x * Fraction(3, 2) for x in e.vertices),
                          tuple(Halfspace(h.normal, h.offset * Fraction(3, 2)) for h in e.facets))
    doubled = Polytope._raw(tuple(x * 2 for x in s.vertices))
    yield "check(S,E)", _violations(check_system(s, e, u))
    yield "check(S,3/2E)", _violations(check_system(s, wider, u))
    yield "check(2S,E)", _violations(check_system(doubled, e, u))
    c = classify(sys_)
    yield "tag", c.tag.value
    yield "witness", "none" if c.witness is None else _vec(c.witness)
    yield "admits_gtt", str(admits_gtt(sys_))
    dim = sys_.dim
    for c_ in (QVec([int(j == 0) for j in range(dim)]),
               QVec([(-1) ** j * (j + 1) for j in range(dim)])):
        yield f"decompose{_vec(c_)}", _attempt(
            lambda c_=c_: _vecs(decompose_in_cone(c_, sys_.effects)))
    for name, state in (("centroid", s.centroid()), ("W.vertex0", w.vertices[0])):
        yield f"recover({name})", _attempt(
            lambda state=state: _vec(recover_state(FrameSamples.from_state(sys_, state), sys_)))


def cli_answers(entry):
    family = ["--family", entry.name]
    if "(" in entry.name:
        base, p = entry.name[:-1].split("(")
        family = ["--family", base, "--p", p]
    for verb in ("classify", "emap", "wmap"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([verb, *family])
        yield f"cli.{verb}", json.dumps(f"exit {code}\n{out.getvalue()}")


def noisy_answers(k):
    dim = 2 + k % 4
    states = random_state_space(random.Random(5000 + k), dim)
    p = Fraction(1 + k % 7, 8 - k % 2)
    body = noisy_effects(unrestricted_effects(states), states.unit, p)
    yield "p", str(p)
    yield "vertices", _vecs(body.vertices)
    yield "facets", _facet_set(body)


def answers(corpus: str):
    """(entry, field, value) triples of the corpus, in a fixed order."""
    for entry in polytopic_entries():
        for field, value in system_answers(entry.gpt_system()):
            yield entry.name, field, value
        for field, value in cli_answers(entry):
            yield entry.name, field, value
    for name, family in DISC_FAMILIES:
        for n in DISC_N:
            for field, value in system_answers(discretize(family, n).system):
                yield f"disc:{name}:{n}", field, value
    for d in range(2, 6):
        for s in range(SEEDS[corpus]):
            for field, value in system_answers(random_system(random.Random(1000 * d + s), d)):
                yield f"random:{d}:{s}", field, value
    if corpus == "full":
        for k in range(NOISY_BODIES):
            for field, value in noisy_answers(k):
                yield f"noisy:{k}", field, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", choices=sorted(SEEDS), default="quick")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    for entry, field, value in answers(args.corpus):
        line = f"{entry}\t{field}\t{value}\n"
        digest.update(line.encode())
        sys.stdout.write(line)
    print(f"# sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
