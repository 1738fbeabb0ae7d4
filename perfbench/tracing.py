"""Spans around cohesim's callables, installed from outside the package.

Each span records its name, start, end, parent span and run id.  Spans nest
per thread; the run id is the id of the outermost span open in that thread,
so the spans of one top-level call (the whole command, or one study level
running in a pool thread) share it.  Spans stay in memory until the workload
process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None}
        span["run"] = parent["run"] if parent else span["id"]
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def patch(module_name: str, attr_path: str, wrap) -> None:
    """Replace ``module.attr`` or ``module.Class.attr`` by ``wrap(original)``.

    Classmethods are unwrapped and re-wrapped so the class stays the first
    argument; plain methods receive ``self`` through the wrapper unchanged.
    """
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(raw))


def install(tracer: Tracer) -> None:
    """Wrap the module-boundary callables of every layer in spans.

    The names patched are those each caller looks up at call time, so the
    wrapper sits on the boundary the call actually crosses.
    """
    import cohesim.cli

    spans = [
        ("cohesim.config", "build_rectangle_mesh", "mesh.build"),
        ("cohesim.mesh", "estimate_trace_constant", "mesh.trace_constant"),
        ("cohesim.assembly", "LoadModel.from_functions", "assembly.load_sampling"),
        ("cohesim.assembly", "assemble", "assembly.assemble"),
        ("cohesim.evolution", "StepWorkspace", "step.workspace"),
        ("cohesim.evolution", "convexity_guard", "step.convexity_guard"),
        ("cohesim.evolution", "solve_step", "step.solve_step"),
        ("cohesim.evolution", "load_vector", "evolution.load_lookup"),
        ("cohesim.step", "StepWorkspace.newton_direction", "step.newton_direction"),
        ("cohesim.step", "incremental_energy", "step.incremental_energy"),
        ("cohesim.cli", "traction_extraction", "audit.traction"),
        ("cohesim.cli", "energy_ledger", "audit.energy_ledger"),
        ("cohesim.cli", "kkt_report", "audit.kkt_report"),
        ("cohesim.cli", "write_vtk_frame", "output.vtk_frame"),
    ]
    spans += [("cohesim.cli", name, "output.csv") for name in vars(cohesim.cli)
              if name.startswith("write_") and name.endswith("_csv")]
    for module_name, attr_path, span_name in spans:
        patch(module_name, attr_path, functools.partial(tracer.wrap, span_name))


def durations(spans, name) -> list:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Children run in the parent's thread, one after another, so their
    intervals do not overlap and their durations add up.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
