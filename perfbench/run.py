"""Benchmark of cohesim: time to an audited solution, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; the repository root is the parent of this directory and
must hold ``src/cohesim``.  Each repetition is a fresh process
(``child.py``) that imports cohesim and calls ``cohesim.cli.main`` with the
workload's generated document; one process runs at a time, with BLAS pinned
to one thread.  Repetitions continue until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``setup_s``
calibrated for the machine's speed (see ``calibrated``), ``peak_rss_mb`` as
the median over repetitions; when a workload fits fewer than three
repetitions, extra set-up-only repetitions bring ``setup_s`` to three
samples.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics, with the tracing overhead as traced minus
untraced ``wall_s``.  Every repetition's
outputs are checked (see checks.py); a failed check counts as a failed
repetition.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` names for the
mode.  ``--all`` runs every workload both ways, prints every metric and
writes ``.perfbench_out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, amplitude

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
NO_NEW_REP_AFTER_S = 150
BLAS_THREADS = "1"
CALIBRATED = ("wall_s", "setup_s")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "calib_factor": "ratio",
    "peak_rss_mb": "MB",
    "max_energy_residual": "energy",
    "max_kkt_violation": "jump",
    "failed_frac": "ratio",
}
COMPUTED_UNITS = {   # exact counts, computed from sizes and records, not timed
    "mesh.n_nodes": "count",
    "mesh.n_pairs": "count",
    "assembly.load_table_bytes": "bytes",
    "step.workspace_dense_bytes": "bytes",
    "step.newton_iters_total": "count",
    "output.bytes_written": "bytes",
}
LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.trace_constant_s": "s",
    "assembly.load_sampling_s": "s",
    "assembly.assemble_s": "s",
    "step.workspace_s": "s",
    "step.convexity_guard_s": "s",
    "step.solve_step_s": "s",
    "step.step_ms_p50": "ms",
    "step.step_ms_p90": "ms",
    "step.newton_direction_s": "s",
    "step.newton_direction_calls": "count",
    "step.energy_evals": "count",
    "step.iters_per_eval": "ratio",
    "evolution.run_s": "s",
    "evolution.record_s": "s",
    "evolution.load_lookup_s": "s",
    "evolution.callback_s": "s",
    "audit.traction_s": "s",
    "audit.traction_calls": "count",
    "audit.ledger_kkt_s": "s",
    "audit.max_energy_residual": "energy",
    "output.vtk_s": "s",
    "output.vtk_frames": "count",
    "output.csv_s": "s",
    "cli.import_s": "s",
    "cli.study_level_s": "s",
    "cli.jobs_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    **COMPUTED_UNITS,
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COHESIM_THREADS", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


class Runner:
    """Repetitions of one workload at one seed, and their outcomes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.work = OUT / f"work-{workload.name}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.doc = self.work / "input.json"
        doc = workload.document(seed)
        self.doc.write_text(json.dumps(doc, indent=1))
        self.vtk = doc.get("base", doc)["output"]["vtk"]
        self.attempted = 0
        self.failures = []

    def spawn(self, mode: str, trace: bool):
        """Run one repetition; return its result, or None if it failed."""
        self.attempted += 1
        tag = f"{self.attempted:03d}"
        out = self.work / f"out-{tag}"
        req = {
            "argv": self.workload.argv(str(self.doc), str(out)),
            "command": self.workload.command,
            "out": str(out),
            "mode": mode,
            "trace": trace,
            "vtk": self.vtk,
            "energy_ref": self.workload.energy_ref,
            "result": str(self.work / f"result-{tag}.json"),
        }
        req_path = self.work / f"request-{tag}.json"
        req_path.write_text(json.dumps(req))
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(req_path)],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(tag, f"timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(tag, f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(Path(req["result"]).read_text())
        shutil.rmtree(out, ignore_errors=True)
        if result["errors"]:
            return self._fail(tag, "; ".join(result["errors"][:5]))
        if result["run_entry"] is None:
            return self._fail(tag, "evolution.run was never entered")
        result["setup_s"] = result["run_entry"] - spawned - result["setup_excluded_s"]
        return result

    def _fail(self, tag, message):
        self.failures.append(message)
        print(f"repetition {tag} of {self.workload.name} failed: {message}",
              file=sys.stderr)
        return None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(samples: dict) -> dict:
    """Median of each metric's samples, with their spread and count."""
    return {name: {"value": statistics.median(vals), "median": statistics.median(vals),
                   "spread": spread(vals), "n": len(vals)}
            for name, vals in samples.items() if vals}


def calibrated(reps, name: str) -> float:
    """A time of the run at the reference machine speed (calibration.py).

    The total raw time of the repetitions over the total of their slowdown
    factors.  On a 2-CPU machine shared with other tenants, raw times of the
    same code moved by up to 2x between runs a few minutes apart; this ratio
    of sums spread less across seeds than the median or the minimum of the
    per-repetition ratios (NOTES.md).
    """
    return sum(r[name] for r in reps) / sum(r["calib_factor"] for r in reps)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds``; return metrics and outcome counts."""
    runner = Runner(workload, seed)
    plain, traced, setups = [], [], []
    started = time.monotonic()
    try:
        runner.spawn("setup", trace=False)   # warm-up: byte-code caches, page cache
        while True:
            rep_start = time.monotonic()
            res = runner.spawn("full", trace=False)
            if res is not None:
                plain.append(res)
                setups.append(res)
            if trace:
                res = runner.spawn("full", trace=True)
                if res is not None:
                    traced.append(res)
            now = time.monotonic()
            if (now - started >= seconds
                    or now - started + (now - rep_start) > NO_NEW_REP_AFTER_S):
                break
        tries = 0
        while not trace and len(setups) < SETUP_SAMPLES and tries < SETUP_SAMPLES:
            tries += 1
            res = runner.spawn("setup", trace=False)
            if res is not None:
                setups.append(res)
    finally:
        runner.close()

    samples = {
        "wall_s": [r["wall_s"] / r["calib_factor"] for r in plain],
        "setup_s": [r["setup_s"] / r["calib_factor"] for r in setups],
        "wall_raw_s": [r["wall_s"] for r in plain],
        "setup_raw_s": [r["setup_s"] for r in setups],
        "calib_factor": [r["calib_factor"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "max_energy_residual": [r["max_energy_residual"] for r in plain],
        "max_kkt_violation": [r["max_kkt_violation"] for r in plain],
    }
    if trace:
        layers = [r["layers"] for r in traced]
        samples.update({name: [lay[name] for lay in layers] for name in LAYER_UNITS
                        if layers and name in layers[0]})
        samples.update({name: [r["counts"][name] for r in traced] for name in COMPUTED_UNITS})
        samples["cli.import_s"] = [r["import_s"] for r in traced]
        samples["audit.max_energy_residual"] = [r["max_energy_residual"] for r in traced]
        if plain and traced:
            samples["trace.overhead_s"] = [min(r["wall_s"] for r in traced)
                                           - min(samples["wall_raw_s"])]
    metrics = summarize(samples)
    for name, reps in (("wall_s", plain), ("setup_s", setups)):
        if reps:
            metrics[name]["value"] = calibrated(reps, name)
    attempted, failed = runner.attempted, len(runner.failures)
    metrics["failed_frac"] = {"value": failed / attempted, "median": failed / attempted,
                              "spread": 0.0, "n": attempted}
    env = (plain or traced or [{}])[0].get("env")
    return {"workload": workload.name, "seed": seed, "amplitude": amplitude(seed),
            "attempted": attempted, "failed": failed, "metrics": metrics, "env": env,
            "levels_s": [r["layers"]["cli.study_level_s_each"] for r in traced],
            "spans": traced[-1]["spans"] if traced else None}


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name]


def report(m: dict, trace: bool) -> None:
    print(f"workload {m['workload']} seed {m['seed']} amplitude {m['amplitude']!r} "
          f"trace {int(trace)}: {m['attempted']} repetitions, {m['failed']} failed")
    if m["env"]:
        print("  env " + json.dumps(m["env"], sort_keys=True))
    for name, v in m["metrics"].items():
        tag = " (computed)" if name in COMPUTED_UNITS else ""
        stat = f"calibrated, {v['n']} reps; median per rep {v['median']:.6g}" \
            if name in CALIBRATED else f"median of {v['n']}"
        print(f"  {name:<30} {v['value']:>14.6g} {unit_of(name):<7}"
              f" ({stat}; IQR/median {v['spread']:.3f}){tag}")
    for i, levels in enumerate(m["levels_s"]):
        print(f"  cli.study_level_s per level (traced rep {i + 1}): "
              + ", ".join(f"{s:.4f} s" for s in levels))


def result_line(m: dict, names) -> str:
    missing = [n for n in names if n not in m["metrics"]]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {n: {"value": m["metrics"][n]["value"], "unit": unit_of(n)}
                    for n in names},
    })


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def save_spans(m: dict) -> None:
    if m["spans"] is not None:
        (OUT / f"spans-{m['workload']}.json").write_text(json.dumps(m["spans"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cohesim" / "__init__.py").is_file():
        print(f"no cohesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)

    if args.workload:
        wl = WORKLOADS[args.workload]
        m = measure(wl, args.seed, seconds, bool(args.trace))
        report(m, bool(args.trace))
        save_spans(m)
        names = [x["name"] for x in spec["per_layer" if args.trace else "end_to_end"]]
        try:
            line = result_line(m, names)
        except KeyError as exc:
            print(f"no result: {exc}", file=sys.stderr)
            return 1
        print(line)
        return 0

    results = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            m = measure(WORKLOADS[name], args.seed, seconds, trace)
            report(m, trace)
            save_spans(m)
            results.append({k: v for k, v in m.items() if k != "spans"})
    (OUT / "results.json").write_text(json.dumps(results, indent=1))
    failed = sum(r["failed"] for r in results)
    print(f"{len(results)} measurements, {failed} failed repetitions; "
          f"results in {OUT / 'results.json'}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
