"""One workload repetition in a fresh process.

    python3 perfbench/child.py <request.json>

The request (written by run.py) holds the ``cohesim.cli.main`` arguments,
the output directory, the mode and the trace flag.  The process imports
cohesim, runs the command in-process, checks what it wrote and writes its
measurements to the result file the request names.

Mode "full" runs the whole command.  Mode "setup" stops at the first entry
into ``evolution.run``, to sample set-up time alone.  Untraced, only
``cohesim.cli.run`` is wrapped, to timestamp its first entry, keep the
trajectory records for the checks and time the calibration kernel between
time steps (calibration.py); traced, every layer boundary listed in
tracing.py is wrapped in spans as well, and the kernel runs only before and
after the command.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import checks
import tracing


class SetupDone(BaseException):
    """Ends a set-up-only repetition at the first entry into the time loop.

    A BaseException, so that no ``except Exception`` in the CLI absorbs it.
    """


class Probe:
    """The ``cohesim.cli.run`` wrapper: entry times, records, callback spans."""

    def __init__(self, tracer, calibrator, stop_at_run: bool):
        self.tracer = tracer
        self.calibrator = calibrator
        self.stop_at_run = stop_at_run
        self.entries = []
        self.records = []

    def wrap_run(self, run):
        def probed_run(*args, **kwargs):
            self.entries.append(time.monotonic())
            if self.stop_at_run:
                raise SetupDone
            if self.tracer is None:
                callbacks = kwargs.get("callbacks")
                if callbacks is not None:
                    kwargs["callbacks"] = self._calibrated_callbacks(callbacks)
                record = run(*args, **kwargs)
            else:
                callbacks = kwargs.get("callbacks")
                if callbacks is not None:
                    kwargs["callbacks"] = self._traced_callbacks(callbacks)
                record = self.tracer.call("evolution.run", run, *args, **kwargs)
            self.records.append(record)
            return record
        return probed_run

    def _calibrated_callbacks(self, callbacks):
        listed = list(callbacks) if isinstance(callbacks, (list, tuple)) else [callbacks]

        def on_step(state, result):
            for cb in listed:
                cb(state, result)
            self.calibrator.between_steps()
        return on_step

    def _traced_callbacks(self, callbacks):
        listed = list(callbacks) if isinstance(callbacks, (list, tuple)) else [callbacks]

        def on_step(state, result):
            for cb in listed:
                self.tracer.call("evolution.callback", cb, state, result)
        return on_step


def _bytes_under(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _layers(spans, counts, wall_s) -> dict:
    """Per-layer metrics of one traced repetition."""
    import numpy as np

    def total(name):
        return float(sum(tracing.durations(spans, name)))

    def count(name):
        return len(tracing.durations(spans, name))

    own = tracing.self_times(spans)
    runs = tracing.durations(spans, "evolution.run")
    steps_ms = np.array(tracing.durations(spans, "step.solve_step")) * 1e3
    evals = count("step.incremental_energy")
    root = next(s for s in spans if s["name"] == "cli.main")
    return {
        "mesh.build_s": total("mesh.build"),
        "mesh.trace_constant_s": total("mesh.trace_constant"),
        "assembly.load_sampling_s": total("assembly.load_sampling"),
        "assembly.assemble_s": total("assembly.assemble"),
        "step.workspace_s": total("step.workspace"),
        "step.convexity_guard_s": total("step.convexity_guard"),
        "step.solve_step_s": total("step.solve_step"),
        "step.step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step.step_ms_p90": float(np.percentile(steps_ms, 90)),
        "step.newton_direction_s": total("step.newton_direction"),
        "step.newton_direction_calls": count("step.newton_direction"),
        "step.energy_evals": evals,
        "step.iters_per_eval": counts["step.newton_iters_total"] / evals,
        "evolution.run_s": total("evolution.run"),
        "evolution.record_s": float(sum(own[s["id"]] for s in spans
                                        if s["name"] == "evolution.run")),
        "evolution.load_lookup_s": total("evolution.load_lookup"),
        "evolution.callback_s": total("evolution.callback"),
        "audit.traction_s": total("audit.traction"),
        "audit.traction_calls": count("audit.traction"),
        "audit.ledger_kkt_s": total("audit.energy_ledger") + total("audit.kkt_report"),
        "output.vtk_s": total("output.vtk_frame"),
        "output.vtk_frames": count("output.vtk_frame"),
        "output.csv_s": total("output.csv"),
        "cli.study_level_s": max(runs),
        "cli.study_level_s_each": runs,
        "cli.jobs_speedup": sum(runs) / wall_s,
        "trace.unattributed_s": own[root["id"]],
    }


def main(request_path) -> int:
    with open(request_path) as f:
        req = json.load(f)
    t0 = time.perf_counter()
    import cohesim.cli
    import_s = time.perf_counter() - t0
    import calibration   # after cohesim, so that import_s includes numpy and scipy
    calibration_import_s = time.perf_counter() - t0 - import_s

    tracer = tracing.Tracer() if req["trace"] else None
    calibrator = calibration.Calibrator()
    probe = Probe(tracer, calibrator, stop_at_run=req["mode"] == "setup")
    tracing.patch("cohesim.cli", "run", probe.wrap_run)
    if tracer is not None:
        tracing.install(tracer)
    result = {"import_s": import_s, "env": _environment()}

    calibrator.sample()
    # the calibration's import and first sample fall inside the set-up
    # interval and are taken out of it
    first_sample_s = calibrator.spent_s
    result["setup_excluded_s"] = calibration_import_s + first_sample_s
    t_main = time.perf_counter()
    try:
        if tracer is None:
            code = cohesim.cli.main(req["argv"])
        else:
            code = tracer.call("cli.main", cohesim.cli.main, req["argv"])
    except SetupDone:
        result.update(errors=[], run_entry=probe.entries[0])
    else:
        wall_s = time.perf_counter() - t_main - (calibrator.spent_s - first_sample_s)
        result.update(_full_run(req, code, wall_s, probe.records))
        result["run_entry"] = probe.entries[0] if probe.entries else None
        if tracer is not None and not result["errors"]:
            result["layers"] = _layers(tracer.spans, result["counts"], wall_s)
            result["spans"] = tracer.spans
    calibrator.sample()
    result["calib_factor"] = calibrator.factor()
    with open(req["result"], "w") as f:
        json.dump(result, f)
    return 0


def _full_run(req, code, wall_s, records) -> dict:
    """Measurements and output checks of a completed command."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = req["out"]
    if code != 0:
        errors, max_r, max_kkt = [f"cohesim exited with code {code}"], None, None
    elif req["command"] == "study":
        errors, max_r, max_kkt = checks.check_study(out, records, req["energy_ref"])
    else:
        errors, max_r, max_kkt = checks.check_run(out, records, req["energy_ref"],
                                                  req["vtk"])
    counts = {
        "mesh.n_nodes": max(r.ops.n_nodes for r in records),
        "mesh.n_pairs": max(r.ops.mesh.n_pairs for r in records),
        # no workload sets loads.samples, so the table has n + 1 rows
        "assembly.load_table_bytes": sum(
            (r.n_steps + 1) * r.ops.n_nodes * 8 for r in records),
        "step.workspace_dense_bytes": sum(
            r.ops.free_dofs.size * r.ops.mesh.n_pairs * 8 for r in records),
        "step.newton_iters_total": sum(int(r.newton_iters.sum()) for r in records),
        "output.bytes_written": _bytes_under(out),
    } if records else {}
    return {"errors": errors, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "max_energy_residual": max_r, "max_kkt_violation": max_kkt, "counts": counts}

if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
