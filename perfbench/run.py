"""gptgeom benchmark: one seeded workload per run, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # the four in turn

The workload is set up (inputs drawn from the seed, prebuilt bodies
built), then the timed phase repeats its pass, a fixed list of ops, until
``--seconds`` of op time have passed and the workload's minimum number of
passes are done, so each run measures whole passes.  Every answer is
checked outside the timed span; a wrong answer, an unexpected exception or
an op that hits ``OP_CAP_S`` counts as a failed op.  Between ops, untimed,
the set-up is repeated and the CLI is started cold in fresh interpreters,
spread over the phase.

Times are reported at a nominal machine speed.  On the shared two-core
machine this was written on, the same CPU work ran up to 1.8 times slower
for stretches of 0.5 s to minutes, and the op times of 20 s runs moved by
20-40 % between runs.  So every timing is divided by the time of a fixed
integer-arithmetic probe (``probe``) taken just before it, at most
``PROBE_EVERY_S`` of op time earlier, and multiplied by ``PROBE_NOMINAL_S``;
an op's latency is the median of these over the passes.  That brought the
spread of the disc workload's timings over five seeds from 20-40 % to
5-9 %.  The raw latencies and probe times are kept in the run record;
per-layer times of the traced run are raw.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracing.py``).
The last line of standard output is one JSON object; the lines before it
repeat every metric by name and unit, with the run's metadata.  A record
of the run (and, when traced, its spans) is written under ``perfbench/out``.
"""
from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli", "disc", "restrict", "query")
SETUP_REPEATS = 3
COLD_RUNS = 11
OP_CAP_S = 60.0      # far above the slowest op, about 1 s when this was written
HARD_STOP_S = 80.0   # no op starts after this much timed phase
PROBE_EVERY_S = 0.1  # op time between machine-speed probes
PROBE_NOMINAL_S = 0.0015  # the probe's time on an unloaded core of that machine


class OpTimeout(BaseException):
    """Raised inside an op that ran past OP_CAP_S; not an Exception, so the
    program's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def probe() -> float:
    """Machine speed now: the median of three runs of a fixed loop of
    Python integer arithmetic, which no gptgeom code can change."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 1
        for i in range(10000):
            x = (x * 48271 + i) % 2147483647
        times.append(perf_counter() - t0)
    return statistics.median(times)


def nominal(seconds, probe_s) -> float:
    """A time measured while the probe took ``probe_s``, at nominal speed."""
    return seconds * PROBE_NOMINAL_S / probe_s


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1]


def metadata() -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


class Phase:
    """The timed phase: whole passes over the workload's ops."""

    def __init__(self, workload, tracer=None, idle=()):
        self.wl = workload
        self.tracer = tracer
        self.idle = idle  # called with the phase after each op, untimed
        self.passes: list[list[float]] = []  # raw op latencies of each whole pass
        self.probes: list[list[float]] = []  # the probe time each latency is scaled by
        self.busy = 0.0                      # op time so far
        self.probed_at = None
        self.probe_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict = {}
        self.errors: list[str] = []
        self.snapshots: list = []

    def run_pass(self, stop_at=None) -> bool:
        """One pass, traced if the phase has a tracer; False if it was cut
        short at ``stop_at``."""
        with self.tracer.installed() if self.tracer else contextlib.nullcontext():
            return self._pass(stop_at)

    def _pass(self, stop_at) -> bool:
        ctx: dict = {}
        lat, probes = [], []
        for i, op in enumerate(self.wl.ops):
            if stop_at is not None and perf_counter() > stop_at:
                return False
            if self.probed_at is None or self.busy - self.probed_at >= PROBE_EVERY_S:
                self.probe_s, self.probed_at = probe(), self.busy
            fn = (lambda op=op: op.run(ctx))
            ok = True
            self.attempted += 1
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            t0 = perf_counter()
            try:
                if self.tracer:
                    self.tracer.on = True
                    result = self.tracer.op_span(f"op.{op.name}", fn)
                else:
                    result = fn()
            except OpTimeout:
                ok = False
                self._error(f"{op.name}: timed out after {OP_CAP_S:g} s")
            except Exception as exc:  # an op that raises is a failed op
                ok = False
                self._error(f"{op.name}: {type(exc).__name__}: {exc}")
            finally:
                lat.append(perf_counter() - t0)
                signal.setitimer(signal.ITIMER_REAL, 0)
                if self.tracer:
                    self.tracer.on = False
            probes.append(self.probe_s)
            if ok:
                if op.key:
                    ctx[op.key] = result
                ok = self._verdict(i, op, result)
            if not ok:
                self.failed += 1
            self.busy += lat[-1]
            for fn in self.idle:
                fn(self)
        self.passes.append(lat)
        self.probes.append(probes)
        if self.tracer:
            self.snapshots.append(self.tracer.snapshot())
        return True

    def _verdict(self, i, op, result) -> bool:
        try:
            key = (i, op.answer(result))
            if key not in self.verdicts:
                self.verdicts[key] = bool(op.verify(key[1]))
        except Exception as exc:  # a malformed answer is a wrong answer
            self._error(f"{op.name}: unreadable answer: {type(exc).__name__}: {exc}")
            return False
        if not self.verdicts[key]:
            self._error(f"{op.name}: wrong answer {str(key[1])[:200]}")
        return self.verdicts[key]

    def _error(self, msg):
        if len(self.errors) < 20:
            self.errors.append(msg)

    def run(self, seconds, between=None):
        """Whole passes until ``seconds`` of op time and the workload's
        minimum pass count; ``between(self)`` runs after each pass."""
        stop_at = perf_counter() + HARD_STOP_S
        while self.run_pass(stop_at):
            if between:
                between(self)
            if self.busy >= seconds and len(self.passes) >= self.wl.min_passes:
                break
            if perf_counter() > stop_at:
                break

    def latencies(self) -> list[float]:
        """Each op's latency at nominal speed, the median over the passes."""
        return [statistics.median(nominal(t, p) for t, p in zip(ts, ps))
                for ts, ps in zip(zip(*self.passes), zip(*self.probes))]


class Spread:
    """Calls ``fn`` ``count`` times, spread evenly over the timed phase
    between ops, so its samples see the same machine conditions as the ops."""

    def __init__(self, fn, count, seconds):
        self.fn, self.count, self.every = fn, count, seconds / max(count, 1)
        self.samples: list = []

    def maybe(self, phase):
        if len(self.samples) < self.count and phase.busy >= self.every * len(self.samples):
            self.samples.append(self.fn())

    def finish(self):
        while len(self.samples) < self.count:
            self.samples.append(self.fn())


def timed_at_nominal(fn):
    """Run ``fn()``; (its time at nominal speed, its result)."""
    p = probe()
    t0 = perf_counter()
    result = fn()
    return nominal(perf_counter() - t0, p), result


def cold_start(bit_json) -> tuple[float, bool]:
    """One CLI run in a fresh interpreter: (seconds at nominal speed, right output)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds, proc = timed_at_nominal(lambda: subprocess.run(
        [sys.executable, "-m", "gptgeom.cli", "classify", bit_json],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60))
    return seconds, proc.returncode == 0 and proc.stdout == "Unrestricted; admits GTT: yes\n"


def run_workload(name, seed, seconds, trace, out=print) -> dict:
    import workloads
    import_s = nominal(perf_counter() - T_START, probe())  # interpreter ready -> imported
    meta = metadata()
    workdir = OUT / f"work-{name}"
    workdir.mkdir(parents=True, exist_ok=True)

    def setup():
        return timed_at_nominal(
            lambda: workloads.BY_NAME[name](random.Random(f"{name}:{seed}"), workdir))

    first_setup, wl = setup()

    signal.signal(signal.SIGALRM, _on_alarm)
    out(f"# gptgeom benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    out("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    out(f"# pass: {len(wl.ops)} ops; closed loop, one client")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "meta": meta}
    if trace:
        import tracing
        # untraced passes alternate with traced ones, so both see the same
        # machine conditions and their ratio is the tracing overhead
        tracer = tracing.Tracer()
        baseline, phase = Phase(wl), Phase(wl, tracer)
        phase.run(seconds, between=lambda _: baseline.run_pass())
        metrics = tracer.layer_metrics(len(phase.passes))
        metrics["trace.overhead_ratio"] = (
            sum(phase.latencies()) / sum(baseline.latencies()), "ratio")
        repeat = _counts_repeat(phase.snapshots)
        out(f"# trace: {len(tracer.spans)} spans over {len(phase.passes)} passes; layer "
            f"metrics are per pass; per-pass counts repeat exactly: {'yes' if repeat else 'no'}")
        tracer.write_spans(OUT / f"spans-{name}-{seed}.json")
        record["counts_repeat"] = repeat
        attempted = phase.attempted + baseline.attempted
        failed = phase.failed + baseline.failed
        errors = baseline.errors + phase.errors
    else:
        setups = Spread(lambda: setup()[0], SETUP_REPEATS - 1, seconds)
        colds = Spread(lambda: cold_start(workloads.write_bit_system(workdir)),
                       COLD_RUNS, seconds)
        phase = Phase(wl, idle=(setups.maybe, colds.maybe))
        phase.run(seconds)
        setups.finish()
        colds.finish()
        setup_runs = [first_setup] + setups.samples
        cold_ok = all(ok for _, ok in colds.samples)
        lat = sorted(phase.latencies())
        n, passes = len(lat), len(phase.passes)
        beyond = n - -(-n * wl.tail_pct // 100)
        metrics = {
            "ops_per_s": (n / sum(lat), "1/s"),
            "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "op_tail_ms": (percentile(lat, wl.tail_pct) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cold_start_ms": (statistics.median(t for t, _ in colds.samples) * 1e3, "ms"),
            "setup_s": (import_s + statistics.median(setup_runs), "s"),
        }
        attempted = phase.attempted + COLD_RUNS
        failed = phase.failed + (0 if cold_ok else COLD_RUNS)
        errors = phase.errors + ([] if cold_ok else ["cold start: wrong output"])
        record.update(tail={"percentile": wl.tail_pct, "ops_beyond": beyond,
                            "samples_beyond": beyond * passes},
                      import_s=import_s, setup_runs_s=setup_runs,
                      cold_start_runs_s=[t for t, _ in colds.samples],
                      raw_latencies_s=phase.passes, probes_s=phase.probes)
        out(f"# {phase.attempted} ops in {passes} passes of {n}; op_tail_ms is "
            f"p{wl.tail_pct}: {beyond} ops x {passes} passes = {beyond * passes} "
            f"samples beyond it; times at nominal machine speed")
    for msg in errors:
        out(f"# FAILED {msg}")
    for key, (value, unit) in metrics.items():
        out(f"{name} {key} {value:.6g} {unit}")
    out(f"{name} fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result, passes=len(phase.passes), errors=errors)
    (OUT / f"result-{name}-{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def _counts_repeat(snapshots) -> bool:
    """Whether every pass added exactly the same counts."""
    deltas, prev = [], {}
    for snap in snapshots:
        cur = dict(snap)
        deltas.append({k: v - prev.get(k, 0) for k, v in cur.items()})
        prev = cur
    return all(d == deltas[0] for d in deltas)


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own process, so each set-up starts cold."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gptgeom" / "__init__.py").is_file():
        print(f"error: no gptgeom sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
