"""Benchmark workloads: the document each one hands to ``cohesim``.

The scenario documents are copies of ``scenarios/standard_ramp.json``,
``scenarios/unloading_tent.json`` and ``scenarios/study_tau.json`` as they
stood when the benchmark was written, so that editing a shipped scenario does
not silently change what the benchmark measures.

A seed picks a load-amplitude factor in [0.95, 1.05]; seed 0 is factor 1, the
document unchanged.  The program only ever sees the generated JSON file.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

STANDARD_RAMP = {
    "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 16, "n_y": 8},
    "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
    "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 0.2},
    "loads": {"bulk": "100 * t * sin(pi * x) * y"},
    "time": {"T": 1.0, "n": 200},
    "initial": {},
    "regularization": {"eps_bar": 0.001},
    "output": {"snapshot_stride": 10, "vtk": True},
}

UNLOADING_TENT = {
    "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 16, "n_y": 8},
    "materials": {"rho": 0.1, "mu": 2.0, "eta": 4.0},
    "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 2.0},
    "loads": {"bulk": "25 * min(t / 0.4, max(1 + (t - 0.4) * -3, "
                      "0.1 + (t - 0.7) * 0.6666666666666666)) * sin(pi * x) * y"},
    "time": {"T": 1.0, "n": 200},
    "initial": {},
    "regularization": {"eps_bar": 0.001},
    "output": {"snapshot_stride": 10, "vtk": False},
}

STUDY_TAU = {
    "kind": "tau_refinement",
    "levels": 3,
    "base": {
        "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 8, "n_y": 4},
        "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
        "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 0.2},
        "loads": {"bulk": "100 * t * sin(pi * x) * y"},
        "time": {"T": 1.0, "n": 120},
        "initial": {},
        "regularization": {"eps_bar": 0.001},
        "output": {"snapshot_stride": 1, "vtk": False},
    },
}


def _resized(doc: dict, n_x: int, n_y: int, n: int | None = None,
             stride: int | None = None, T: float | None = None) -> dict:
    doc = copy.deepcopy(doc)
    scenario = doc.get("base", doc)
    scenario["mesh"].update(n_x=n_x, n_y=n_y)
    if n is not None:
        scenario["time"]["n"] = n
    if T is not None:
        scenario["time"]["T"] = T
    if stride is not None:
        scenario["output"]["snapshot_stride"] = stride
    return doc


def amplitude(seed: int) -> float:
    """Load-amplitude factor of a seed: 1 for seed 0, else in [0.95, 1.05]."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(0.95, 1.05)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # cohesim sub-command: "run" or "study"
    doc: dict             # scenario (run) or study (study) document at factor 1
    energy_ref: float     # correctness gate on the max energy-ledger residual
    cli_args: tuple = ()

    def document(self, seed: int) -> dict:
        doc = copy.deepcopy(self.doc)
        loads = doc.get("base", doc)["loads"]
        loads["bulk"] = f"{amplitude(seed)!r} * ({loads['bulk']})"
        return doc

    def argv(self, doc_path: str, out_dir: str) -> list:
        return [self.command, doc_path, "--out", out_dir, *self.cli_args]


# energy_ref is the seed-0 max |R| when the benchmark was written, plus 15%:
# R grows about as the square of the load amplitude, so +/-5% moves it ~10%.
WORKLOADS = {w.name: w for w in (
    Workload("ramp_16x8", "run", STANDARD_RAMP, energy_ref=1.15 * 8.737945e-02),
    Workload("tent_64x32", "run", _resized(UNLOADING_TENT, 64, 32),
             energy_ref=1.15 * 1.638628e-03),
    Workload("ramp_128x64", "run", _resized(STANDARD_RAMP, 128, 64, n=100),
             energy_ref=1.15 * 1.778840e-01),
    Workload("tau_study", "study", STUDY_TAU, energy_ref=1.15 * 1.379181e-01,
             cli_args=("--jobs", "2")),
)}

# Tiny variants that run both code paths in seconds, for selfcheck.py.  The
# horizon is cut rather than the step count, keeping tau small enough for the
# convexity guard.
TINY_WORKLOADS = {w.name: w for w in (
    Workload("tiny_run", "run", _resized(STANDARD_RAMP, 8, 4, n=30, stride=10, T=0.25),
             energy_ref=0.02),
    Workload("tiny_study", "study", _resized(STUDY_TAU, 8, 4, n=30, T=0.25),
             energy_ref=0.02, cli_args=("--jobs", "2")),
)}
