"""Alternating-pair A/B of the benchmark: a parent checkout against a change.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload query --pairs 10 --seed 401

Each directory is a full git checkout of one revision, made with

    git clone -q --no-checkout REPO DIR && git -C DIR checkout -q --detach REV

so the harness can read the revision from ``DIR/.git`` (an exported tree,
such as ``git archive REV | tar -x -C DIR``, has no ``.git`` and reports
``git_rev unknown``).  Pair i runs ``perfbench/run.py --workload W --seed SEED+i
--seconds S --trace 0`` in both, S being ``run_seconds`` of the change's
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones, so slow stretches of a shared machine fall on both sides alike.
It prints every pair's end-to-end metrics, then, per metric, each side's
median and quartiles and the change's wins, ties and losses, where
"better" follows the metric's direction in the change's
``BENCHMARK.json``; then each side's ``git_rev`` and ``src_lines``, read
from the harness's header line, and its failed ops.  Exit status 1 if any
run failed to finish or had a failed op.  Runs write their records under
each checkout's ``perfbench/out``; no file of the benchmark is changed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last-line result of one benchmark run, or None if it did not finish."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return dict(json.loads(lines[-1]), meta=header_fields(lines))


def header_fields(lines: list[str]) -> dict[str, str]:
    """The ``key=value`` fields of the run's ``# git_rev=... src_lines=...``
    header line; empty when there is none."""
    for line in lines:
        if line.startswith("# git_rev="):
            return dict(field.split("=", 1) for field in line[2:].split())
    return {}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per end-to-end metric, each side's quartiles and the change's wins,
    ties and losses over the (parent, change) result pairs; ties count for
    neither side.  ``better`` maps a metric to "higher" or "lower"."""
    summary = {}
    for name, direction in better.items():
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
               for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not got:
            continue
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (c - p) for p, c in got]
        summary[name] = {
            "parent": quartiles([p for p, _ in got]),
            "change": quartiles([c for _, c in got]),
            "wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "losses": sum(d < 0 for d in diffs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    pairs, failed, meta = [], {side: 0 for side in SIDES}, {}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        res = {side: run_once(getattr(args, side), args.workload, seed, seconds)
               for side in order}
        for side in SIDES:
            if res[side] is None:
                print(f"pair {i + 1} seed {seed}: the {side} run did not finish")
                ok = False
            else:
                failed[side] += res[side]["failed"]
                meta.setdefault(side, res[side]["meta"])
        if None in res.values():
            continue
        pairs.append((res["parent"], res["change"]))
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {res['parent']['metrics'][name]['value']:.4g} -> "
            f"{res['change']['metrics'][name]['value']:.4g}"
            for name in better if name in res["parent"]["metrics"]), flush=True)

    print(f"# {args.workload}: {len(pairs)} pairs, {seconds:g} s runs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}; quartiles q1/median/q3")
    for name, s in summarize(pairs, better).items():
        print(f"{args.workload} {name} ({better[name]} is better): parent "
              + "/".join(f"{v:.4g}" for v in s["parent"]) + ", change "
              + "/".join(f"{v:.4g}" for v in s["change"])
              + f"; change wins {s['wins']}, ties {s['ties']}, losses {s['losses']}")
    for side in SIDES:
        fields = meta.get(side, {})
        print(f"{side}: git_rev {fields.get('git_rev', '?')}, "
              f"src_lines {fields.get('src_lines', '?')}")
    print("failed ops: " + ", ".join(f"{side} {failed[side]}" for side in SIDES))
    return 0 if ok and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
