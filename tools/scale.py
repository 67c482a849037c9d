"""Time the disc approximants at scale: discretize, classify and admits_gtt.

    python3 tools/scale.py --family noisy-rebit --p 1/2 --n 512 1024

For each n it builds ``discretize(family, n)`` in a fresh run of the three
steps and prints one row: the wall-clock seconds of each step and the number
of double-description passes (``geometry._dd`` calls) each made.  Run it
from the repository root; it imports ``gptgeom`` from ``src/``.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gptgeom import geometry  # noqa: E402
from gptgeom.linalg import parse_rational  # noqa: E402
from gptgeom.smooth import NoisyRebit, Rebit, discretize  # noqa: E402
from gptgeom.systems import admits_gtt, classify  # noqa: E402

FAMILIES = {"rebit": lambda p: Rebit(), "noisy-rebit": NoisyRebit}
STEPS = ("discretize", "classify", "admits_gtt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILIES), default="noisy-rebit")
    parser.add_argument("--p", type=parse_rational, default="1/2",
                        help="noisy-rebit's efficiency (default 1/2)")
    parser.add_argument("--n", type=int, nargs="+", required=True,
                        help="polygon vertex counts")
    args = parser.parse_args(argv)
    family = FAMILIES[args.family](args.p)
    passes = []
    real = geometry._dd

    def counted(normals, dim):
        passes[-1] += 1
        return real(normals, dim)

    geometry._dd = counted
    print("n\t" + "\t".join(f"{s}_s\t{s}_dd" for s in STEPS))
    for n in args.n:
        row, system = [], None
        for step in STEPS:
            passes.append(0)
            start = time.perf_counter()
            if step == "discretize":
                system = discretize(family, n).system
            else:
                (classify if step == "classify" else admits_gtt)(system)
            row.append(f"{time.perf_counter() - start:.3f}\t{passes[-1]}")
        print(f"{n}\t" + "\t".join(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
