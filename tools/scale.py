"""Time the exact backend at scale: build a system, classify it, run admits_gtt.

    python3 tools/scale.py --family noisy-rebit --p 1/2 --n 512 1024 --runs 5
    python3 tools/scale.py --family random --dim 7 --seed 5

A disc family builds ``discretize(family, n)`` for each n; ``random`` builds
``random_system(Random(s), dim, restrict=True)`` for each seed s.  Each
system is built in ``--runs`` fresh runs of the three steps (default 1),
and each prints one row: the median wall-clock seconds of each step over
the runs, followed, with more than one run, by the fastest and the slowest;
the number of double-description passes (``geometry._dd`` calls) each step
made, the same in every run; and the process's peak resident set size so
far (``ru_maxrss``, in MB; it never falls, so on a row after the first it
is the largest of that row and the ones before).  Run it from the
repository root; it imports ``gptgeom`` from ``src/``.
"""
from __future__ import annotations

import argparse
import random
import resource
import statistics
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
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh runs per row; more than one adds each step's min and max")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs takes a positive count")
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
    spread = args.runs > 1
    passes = 0
    real = geometry._dd

    def counted(normals, dim):
        nonlocal passes
        passes += 1
        return real(normals, dim)

    geometry._dd = counted
    print(f"{key}\t" + "\t".join(f"{s}_s" + (f"\t{s}_min_s\t{s}_max_s" if spread else "")
                                  + f"\t{s}_dd" for s in steps) + "\tpeak_rss_mb")
    for k in keys:
        times, dd = {s: [] for s in steps}, {}
        for _ in range(args.runs):
            for step in steps:
                passes = 0
                start = time.perf_counter()
                if step == first:
                    system = build(k)
                else:
                    (classify if step == "classify" else admits_gtt)(system)
                times[step].append(time.perf_counter() - start)
                dd[step] = passes
        row = [f"{statistics.median(t):.3f}" + (f"\t{min(t):.3f}\t{max(t):.3f}" if spread else "")
               + f"\t{dd[s]}" for s, t in times.items()]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{k}\t" + "\t".join(row) + f"\t{peak:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
