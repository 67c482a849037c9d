"""Run-time span tracing of gptgeom's layers, installed from outside ``src/``.

``install(tracer)`` wraps the public entry points of each module and the DD
kernel ``geometry._dd``.  A wrapped function is replaced in every
``gptgeom`` module namespace that holds it (``from .geometry import
hull_reduce`` copies the name), and methods and properties are replaced on
their class.  Each call records a span ``[name, start, end, parent, op]``;
spans stay in memory and are written when the run ends.  A layer's self time
is its span's duration minus that of its direct child spans.  Per-layer
metrics are per pass of the workload, in raw seconds; a layer the workload
never reaches reads 0.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from gptgeom import cli, frames, geometry, io, linalg, observables, smooth, systems

# (module, attribute) of the wrapped module-level functions
FUNCTIONS = [
    (geometry, "_dd"), (geometry, "hull_reduce"), (geometry, "hrep_to_vrep"),
    (geometry, "vrep_to_hrep"), (geometry, "positive_cone"), (geometry, "dual_cone"),
    (geometry, "cone_intersect"), (geometry, "slice_cone"), (geometry, "set_equal"),
    (systems, "classify"), (systems, "admits_gtt"), (systems, "unrestricted_effects"),
    (systems, "states_from_effects"), (systems, "validate_system"),
    (systems, "check_system"), (systems, "transform_system"),
    (io, "load_json"), (io, "system_from_json"), (io, "polytope_from_json"),
    (io, "samples_from_json"), (io, "vector_from_json"), (io, "dump_canonical"),
    (io, "polytope_to_json"), (io, "system_to_json"), (io, "observable_to_json"),
    (cli, "main"),
    (frames, "recover_state"),
    (linalg, "solve_exact"), (linalg, "rank"), (linalg, "invert_matrix"),
    (observables, "is_observable"), (observables, "noisy_observable"),
    (observables, "mix_observables"), (observables, "coarse_grain"),
    (smooth, "discretize"), (smooth, "disc_polygon_states"),
]
# (class, attribute) of the wrapped methods and properties
METHODS = [
    (geometry.Polytope, "contains"), (geometry.Polytope, "facets"),
    (geometry.Cone, "__init__"), (geometry.Cone, "contains"),
    (geometry.Cone, "halfspaces"), (geometry.Cone, "__eq__"),
    (systems.StateSpace, "__init__"), (systems.EffectSpace, "__init__"),
]

CONE_SPANS = ["geometry.positive_cone", "geometry.dual_cone", "geometry.cone_intersect",
              "geometry.slice_cone", "geometry.Cone.__init__", "geometry.Cone.contains",
              "geometry.Cone.halfspaces", "geometry.Cone.__eq__"]

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "dd.self_s": ["geometry._dd"],
    "systems.classify_s": ["systems.classify"],
    "systems.admits_gtt_s": ["systems.admits_gtt"],
    "systems.emap_s": ["systems.unrestricted_effects"],
    "systems.wmap_s": ["systems.states_from_effects"],
    "systems.validate_s": ["systems.validate_system", "systems.check_system",
                           "systems.StateSpace.__init__", "systems.EffectSpace.__init__"],
    "geometry.contains_s": ["geometry.Polytope.contains"],
    "geometry.hull_reduce_s": ["geometry.hull_reduce"],
    "geometry.hrep_to_vrep_s": ["geometry.hrep_to_vrep"],
    "geometry.vrep_to_hrep_s": ["geometry.vrep_to_hrep"],
    "geometry.cone_s": CONE_SPANS,
    "io.parse_s": ["io.load_json", "io.system_from_json", "io.polytope_from_json",
                   "io.samples_from_json", "io.vector_from_json"],
    "io.dump_s": ["io.dump_canonical", "io.polytope_to_json", "io.system_to_json",
                  "io.observable_to_json"],
    "cli.self_s": ["cli.main"],
    "frames.recover_s": ["frames.recover_state"],
    "linalg.solve_exact_s": ["linalg.solve_exact"],
    "linalg.rank_s": ["linalg.rank"],
    "observables.is_observable_s": ["observables.is_observable"],
    "smooth.discretize_s": ["smooth.discretize", "smooth.disc_polygon_states"],
}
# per-layer count metric -> span whose calls it counts
CALLS = {
    "dd.calls": "geometry._dd",
    "geometry.contains.calls": "geometry.Polytope.contains",
    "geometry.hull_reduce.calls": "geometry.hull_reduce",
    "geometry.vrep_to_hrep.calls": "geometry.vrep_to_hrep",
    "frames.recover.calls": "frames.recover_state",
}
# per-layer count metrics recorded by the hooks below
COUNTS = ["dd.rows_in", "dd.rays_out", "geometry.hull_reduce.points_in", "io.bytes_in",
          "frames.recover.rejected", "observables.is_observable.contains_calls"]


class Tracer:
    """Spans and counters of one run.  ``on`` is False while the harness
    checks answers, so checks leave no spans."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.child: list[float] = []      # per span: time covered by direct children
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()   # span name -> calls
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # span name -> open spans of that name
        self.op = -1

    def call(self, name, f, args, kwargs, after):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self.child.append(0.0)
        self.stack.append(idx)
        self.calls[name] += 1
        self.active[name] += 1
        try:
            out = f(*args, **kwargs)
            if after:
                after(self, args, out)
            return out
        except Exception:
            if name == "frames.recover_state":
                self.counts["frames.recover.rejected"] += 1
            raise
        finally:
            span[2] = end = perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            dur = end - span[1]
            self.self_time[name] += dur - self.child[idx]
            if parent >= 0:
                self.child[parent] += dur

    @contextmanager
    def installed(self):
        uninstall = install(self)
        try:
            yield
        finally:
            uninstall()

    def op_span(self, name, f):
        """Run one benchmark op as a root span; its spans share the op id."""
        self.op += 1
        return self.call(name, f, (), {}, None)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass: (value, unit)."""
        out = {}
        for metric, name in CALLS.items():
            out[metric] = (self.calls[name] / passes, "count")
        for metric in COUNTS:
            out[metric] = (self.counts[metric] / passes, "B" if metric == "io.bytes_in" else "count")
        classify_calls = self.calls["systems.classify"]
        out["systems.classify.dd_calls"] = (
            self.counts["classify_dd_calls"] / classify_calls if classify_calls else 0.0,
            "count")
        for metric, names in SELF_TIMES.items():
            out[metric] = (sum(self.self_time[n] for n in names) / passes, "s")
        return out

    def snapshot(self) -> tuple:
        return tuple(sorted((self.calls + self.counts).items()))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# -- counters recorded where the work happens -------------------------------

def _after_dd(t, args, out):
    rays, lin = out
    t.counts["dd.rows_in"] += len(args[0])
    t.counts["dd.rays_out"] += len(rays) + len(lin)
    if t.active["systems.classify"]:
        t.counts["classify_dd_calls"] += 1


def _after_contains(t, args, out):
    if t.active["observables.is_observable"]:
        t.counts["observables.is_observable.contains_calls"] += 1


def _after_hull(t, args, out):
    t.counts["geometry.hull_reduce.points_in"] += len(args[0])


def _after_load(t, args, out):
    t.counts["io.bytes_in"] += os.path.getsize(args[0])


AFTER = {
    "geometry._dd": _after_dd,
    "geometry.Polytope.contains": _after_contains,
    "geometry.hull_reduce": _after_hull,
    "io.load_json": _after_load,
}


def _wrap(tracer, name, f):
    after = AFTER.get(name)

    @functools.wraps(f)
    def traced(*args, **kwargs):
        if not tracer.on:
            return f(*args, **kwargs)
        return tracer.call(name, f, args, kwargs, after)
    return traced


def install(tracer: Tracer):
    """Patch the wrappers in; returns a function that takes them out again."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gptgeom" or n.startswith("gptgeom."))]
    for mod, attr in FUNCTIONS:
        orig = getattr(mod, attr)
        short = mod.__name__.removeprefix("gptgeom.")
        wrapped = _wrap(tracer, f"{short}.{attr}", orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    for cls, attr in METHODS:
        orig = cls.__dict__[attr]
        name = f"{cls.__module__.removeprefix('gptgeom.')}.{cls.__name__}.{attr}"
        if isinstance(orig, property):
            new = property(_wrap(tracer, name, orig.fget))
        else:
            new = _wrap(tracer, name, orig)
        setattr(cls, attr, new)
        undo.append((cls, attr, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return uninstall
