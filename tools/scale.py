"""Time the exact backend at scale: build a system, classify it, run admits_gtt.

    python3 tools/scale.py --family noisy-rebit --p 1/2 --n 512 1024
    python3 tools/scale.py --family random --dim 7 --seed 5

A disc family builds ``discretize(family, n)`` for each n; ``random`` builds
``random_system(Random(s), dim, restrict=True)`` for each seed s.  Each
system is built in a fresh run of the three steps, and each prints one row:
the wall-clock seconds of each step, the number of double-description
passes (``geometry._dd`` calls) each made, and the process's peak resident
set size so far (``ru_maxrss``, in MB; it never falls, so on a row after
the first it is the largest of that row and the ones before).  Run it from the repository root;
it imports ``gptgeom`` from ``src/``.
"""
from __future__ import annotations

import argparse
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gptgeom import geometry  # noqa: E402
from gptgeom.linalg import parse_rational  # noqa: E402
from gptgeom.randomgen import random_system  # noqa: E402
from gptgeom.smooth import NoisyRebit, Rebit, discretize  # noqa: E402
from gptgeom.systems import admits_gtt, classify  # noqa: E402

FAMILIES = {"rebit": lambda p: Rebit(), "noisy-rebit": NoisyRebit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILIES) + ["random"],
                        default="noisy-rebit")
    parser.add_argument("--p", type=parse_rational, default="1/2",
                        help="noisy-rebit's efficiency (default 1/2)")
    parser.add_argument("--n", type=int, nargs="+", help="polygon vertex counts")
    parser.add_argument("--dim", type=int, help="random: the ambient dimension")
    parser.add_argument("--seed", type=int, nargs="+", help="random: the generator seeds")
    args = parser.parse_args(argv)
    if args.family == "random":
        if args.dim is None or args.seed is None or args.n is not None:
            parser.error("--family random takes --dim and --seed, not --n")
        key, build = "seed", lambda s: random_system(random.Random(s), args.dim, restrict=True)
        keys, first = args.seed, "generate"
    else:
        if args.n is None or args.dim is not None or args.seed is not None:
            parser.error(f"--family {args.family} takes --n, not --dim or --seed")
        family = FAMILIES[args.family](args.p)
        key, build = "n", lambda n: discretize(family, n).system
        keys, first = args.n, "discretize"
    steps = (first, "classify", "admits_gtt")
    passes = []
    real = geometry._dd

    def counted(normals, dim):
        passes[-1] += 1
        return real(normals, dim)

    geometry._dd = counted
    print(f"{key}\t" + "\t".join(f"{s}_s\t{s}_dd" for s in steps) + "\tpeak_rss_mb")
    for k in keys:
        row, system = [], None
        for step in steps:
            passes.append(0)
            start = time.perf_counter()
            if step == first:
                system = build(k)
            else:
                (classify if step == "classify" else admits_gtt)(system)
            row.append(f"{time.perf_counter() - start:.3f}\t{passes[-1]}")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{k}\t" + "\t".join(row) + f"\t{peak:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
