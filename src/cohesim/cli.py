"""Command-line front end.

    cohesim run <config.json> --out <dir>
    cohesim study <study.json> --out <dir> [--jobs N]
    cohesim check-law <config.json>

Exit codes: 0 ok, 2 configuration, 3 solver, 4 I/O.  :func:`main` is the one
place that maps a failure to its exit code and its one-line message
(``config error: ...``, ``solver failure at step k: ...`` or ``solver
failure before step 1: ...``, ``I/O error: ...``); any other exception
propagates.

``run`` audits the tractions of every step from the step's own bulk residual
and cohesive traction, which the step table keeps, in one
:func:`~cohesim.audit.traction_extraction` after the time loop, and writes one
``tractions.csv`` row per step.  Its snapshot stride is the document's
``output.snapshot_stride`` when the document asks for VTK frames, and
``time.n`` otherwise: no output reads the fields of the steps in between, so
the record keeps steps 0 and n only.  A run that a step stops writes the CSVs
of the steps it completed, from the partial record, and the VTK frames of the
snapshot steps among them; a run that the convexity guard or the initial data
stop writes nothing.

A study of any kind runs its levels one after another in the calling thread,
each like ``cohesim run`` into ``<dir>/level_XX``, and compares consecutive
levels with :func:`~cohesim.evolution.trajectory_distance` at the snapshot
times they share, so the study sets each level's snapshot stride, not the
document (:func:`_study_levels`); a level's VTK frames are still those of
the document's output times.  This level loop
is the only study sweep: a library caller writes the same loop with
``run(scenario.with_eps(eps))`` and ``trajectory_distance``.  The levels of a
tau or eps study share the base's mesh, loads and assembled operators: the
study document is parsed once, a tau level is the base with another step
count, and a level hands its operators to the next.
Every tau level's step count is checked before any level runs.  ``--jobs``
is accepted so that existing command lines keep working, and has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .audit import energy_ledger, kkt_report, traction_extraction
from .config import (
    ConfigError,
    ScenarioConfig,
    check_time_steps,
    load_scenario_file,
    load_study_file,
    parse_scenario,
)
from .evolution import EvolutionError, run, trajectory_distance
from .mesh import estimate_trace_constant
from .output import (
    ensure_dir,
    interface_field_on_nodes,
    vtk_geometry,
    write_energy_csv,
    write_kkt_csv,
    write_study_csv,
    write_traction_csv,
    write_vtk_frame,
)
from .step import ConvexityError, StepWorkspace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


@np.errstate(over="ignore", invalid="ignore")
def _write_outputs(cfg: ScenarioConfig, out_dir: str, record, frame_stride: int):
    """Write the CSVs of ``record``, a whole or a partial one, and, if the
    scenario asks for VTK, one frame per snapshot step that is a multiple of
    ``frame_stride`` or the last step ``n``: ``u``, ``v`` and ``xi`` on both
    nodes of each interface pair.  Returns (energy ledger, KKT report).  The
    partial record of a run that overflowed holds the overflowed steps, whose
    rows the CSVs write as they are, so numpy's warnings are off."""
    ledger = energy_ledger(record)
    report = kkt_report(record)
    write_energy_csv(os.path.join(out_dir, "energies.csv"), ledger)
    write_kkt_csv(os.path.join(out_dir, "kkt.csv"), report)
    steps = record.steps[1:]
    tractions = traction_extraction(record.ops, record.law, steps["residual"].swapaxes(0, 1),
                                    steps["traction"])
    write_traction_csv(os.path.join(out_dir, "tractions.csv"), steps["ts"], tractions)
    if cfg.vtk:
        mesh = cfg.scenario.mesh
        geometry = vtk_geometry(mesh)
        frames = [k for k in record.snapshot_steps
                  if k % frame_stride == 0 or k == cfg.scenario.n]
        for frame, k in enumerate(frames):
            fields = {
                "u": record.us[k],
                "v": record.vs[k],
                "xi": interface_field_on_nodes(mesh, record.xis[k]),
            }
            write_vtk_frame(os.path.join(out_dir, f"fields_{frame:04d}.vtk"), mesh, fields,
                            geometry)
    return ledger, report


def _execute_run(cfg: ScenarioConfig, out_dir: str, ops=None, frame_stride=None):
    """Run one scenario and write its artifacts, also those of the steps a
    failed run completed.  ``ops`` are the scenario's assembled operators,
    when a caller holds them for its mesh and materials; otherwise they are
    assembled here.  The VTK frames are those of the record's steps that are
    multiples of ``frame_stride`` (by default ``cfg.snapshot_stride``) and of
    the last.

    Returns (record, energy ledger, KKT report, one-line summary)."""
    from .assembly import assemble

    ensure_dir(out_dir)
    scenario = cfg.scenario
    if ops is None:
        ops = assemble(scenario.mesh, scenario.materials)
    frame_stride = frame_stride or cfg.snapshot_stride
    try:
        record = run(scenario, ops=ops, snapshot_stride=cfg.snapshot_stride)
    except EvolutionError as exc:
        if exc.partial is not None:
            _write_outputs(cfg, out_dir, exc.partial, frame_stride)
        raise

    ledger, report = _write_outputs(cfg, out_dir, record, frame_stride)
    summary = (f"steps={record.n_steps} "
               f"max_energy_residual={ledger.max_residual:.6e} "
               f"max_kkt_violation={report.max_violation:.6e}")
    return record, ledger, report, summary


def cmd_run(args) -> int:
    cfg = load_scenario_file(args.config)
    if not cfg.vtk:     # nothing reads the fields between steps 0 and n
        cfg = replace(cfg, snapshot_stride=cfg.scenario.n)
    *_, summary = _execute_run(cfg, args.out)
    print(f"ok: {summary}")
    return EXIT_OK


def _solver_failure(exc) -> str:
    """The message of a run that the convexity guard or the initial data
    (before step 1) or a step stopped."""
    if isinstance(exc, EvolutionError) and exc.step:
        return f"solver failure at step {exc.step}: {exc}"
    return f"solver failure before step 1: {exc}"


def _study_levels(spec):
    """Expand a study into per-level (label, parameter, ScenarioConfig).

    The base scenario is parsed once, and it is level 0 of a refinement
    study; the levels of a tau or eps study are built from it and share its
    mesh and :class:`~cohesim.assembly.LoadModel`, and only an h study
    parses a document per level.  Each level gets the snapshot stride that
    aligns its comparison times with the next level's: ``2**i`` for tau
    level ``i``, 1 otherwise.  The one level of a ``single`` study is
    compared with nothing, so it keeps the document's stride when it writes
    VTK frames and only steps 0 and n otherwise.
    """
    base = spec.base
    if spec.kind == "h_refinement" and "path" in base.raw["mesh"]:
        raise ConfigError("h_refinement requires an inline rectangle mesh")
    if spec.kind == "single":
        stride = base.snapshot_stride if base.vtk else base.scenario.n
        return [("level_00", base.scenario.n, replace(base, snapshot_stride=stride))]
    if spec.eps_list:
        configs = [(eps, replace(base, scenario=base.scenario.with_eps(eps)))
                   for eps in map(float, spec.eps_list)]
    elif spec.kind == "tau_refinement":
        scenario = base.scenario
        ns = [scenario.n * 2**i for i in range(spec.levels)]
        for n in ns[1:]:    # every level, before any is built
            check_time_steps(scenario.T, n, scenario.materials, scenario.mesh.n_pairs)
        configs = [(n, replace(base, scenario=replace(scenario, n=n)) if i else base)
                   for i, n in enumerate(ns)]
    else:
        configs = []
        for i in range(spec.levels):
            doc = json.loads(json.dumps(base.raw))
            doc["mesh"]["n_x"] *= 2**i
            doc["mesh"]["n_y"] *= 2**i
            configs.append((doc["mesh"]["n_x"], parse_scenario(doc) if i else base))
    tau = spec.kind == "tau_refinement"
    return [(f"level_{i:02d}", param, replace(cfg, snapshot_stride=2**i if tau else 1))
            for i, (param, cfg) in enumerate(configs)]


def _node_injection(coarse_mesh, fine_mesh) -> np.ndarray:
    """Index of the fine node coincident (same body) with each coarse node."""
    from scipy.spatial import cKDTree

    cs, fs = coarse_mesh.node_side(), fine_mesh.node_side()
    out = np.zeros(coarse_mesh.n_nodes, dtype=int)
    tol = 1e-9 * max(1.0, np.abs(fine_mesh.nodes).max())
    for s in (1, -1):
        fine_idx = np.flatnonzero(fs == s)
        tree = cKDTree(fine_mesh.nodes[fine_idx])
        coarse_idx = np.flatnonzero(cs == s)
        dist, nearest = tree.query(coarse_mesh.nodes[coarse_idx])
        if dist.max() > tol:
            raise ConfigError("meshes are not nested; cannot compare levels")
        out[coarse_idx] = fine_idx[nearest]
    return out


def cmd_study(args) -> int:
    spec = load_study_file(args.study)
    return _run_study(spec, _study_levels(spec), args.out)


def _run_study(spec, levels, out) -> int:
    """Run the levels in order, write their artifacts and study.csv under
    ``out``, print the summary line and return the exit code.  A level that
    the guard or the solver stops is reported on stderr and recorded as
    failed; every other exception, output errors included, propagates.

    Each level runs like ``cohesim run`` into its own directory, with the
    operators of the level before when both hold the same mesh and materials
    objects (a tau or eps study assembles once).  Once level ``i + 1`` has
    run, its distance ``d_i`` to level ``i`` is computed and level ``i``'s
    record is dropped, so a study holds at most two trajectories.  A level
    that writes VTK frames writes those of the document's output times, every
    ``output.snapshot_stride * 2**i`` steps of tau level ``i`` and every
    ``output.snapshot_stride`` steps of any other level, and of its last
    step.  ``d_i`` is
    None when either level failed; the order of level ``i`` is
    ``log2(d_i / d_{i+1})``.
    """
    out_root = ensure_dir(out)
    rows, prev, ops = [], None, None
    for i, (label, param, cfg) in enumerate(levels):
        scenario = cfg.scenario
        frame_stride = spec.base.snapshot_stride * (2**i if spec.kind == "tau_refinement"
                                                    else 1)
        if ops is not None and not (ops.mesh is scenario.mesh and scenario.materials
                                    is levels[i - 1][2].scenario.materials):
            ops = None
        try:
            record, ledger, report, _ = _execute_run(cfg, os.path.join(out_root, label),
                                                     ops, frame_stride)
            ops = record.ops
            rows.append([i, param, "ok", ledger.max_residual, report.max_violation,
                         None, None])
        except (ConvexityError, EvolutionError) as exc:
            print(f"{label}: {_solver_failure(exc)}", file=sys.stderr)
            record = None
            rows.append([i, param, "failed", None, None, None, None])
        if prev is not None and record is not None:
            injection = None
            if spec.kind == "h_refinement":
                injection = _node_injection(levels[i - 1][2].scenario.mesh,
                                            cfg.scenario.mesh)
            rows[i - 1][5] = trajectory_distance(prev, record, injection)
        prev = record

    for row, next_row in zip(rows, rows[1:]):
        d, d_next = row[5], next_row[5]
        if d not in (None, 0.0) and d_next not in (None, 0.0):
            row[6] = float(np.log2(d / d_next))
    write_study_csv(os.path.join(out_root, "study.csv"), rows)
    n_ok = sum(row[2] == "ok" for row in rows)
    status = ("ok" if n_ok == len(rows) else "failed" if n_ok == 0
              else "partial failure")
    print(f"{status}: {len(rows)} levels, results in {out_root}/study.csv")
    return EXIT_OK if status == "ok" else EXIT_SOLVER


def cmd_check_law(args) -> int:
    from .assembly import assemble

    scenario = load_scenario_file(args.config).scenario
    c = scenario.law.constants
    ops = assemble(scenario.mesh, scenario.materials)
    c_hat = estimate_trace_constant(scenario.mesh, ops.A_unit)
    margin = scenario.materials.mu_min * c_hat - c.beta
    step_margin = StepWorkspace(ops, scenario.tau).margin(c.beta)
    print(f"law kind: {scenario.law.env.kind}")
    print(f"beta = {c.beta!r}")
    print(f"psi_prime_0 = {c.psi_prime_0!r}")
    print(f"lambda_conv = {c.lambda_conv!r}")
    print(f"H3 (concave slope): {'holds' if c.h3_holds else 'does not hold'}")
    print(f"c_hat = {c_hat!r}")
    print(f"H4 margin (mu*c_hat - beta) = {margin!r} "
          f"({'holds' if margin > 0 else 'does not hold'})")
    print(f"step margin (1 - beta*lambda_max, tau = {scenario.tau!r}) = {step_margin!r} "
          f"({'convex' if step_margin > 0 else 'not convex'})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohesim",
        description="Cohesive-interface visco-elastodynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write CSV/VTK artifacts")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=cmd_run)

    p_study = sub.add_parser("study", help="run a refinement or continuation study")
    p_study.add_argument("study")
    p_study.add_argument("--out", required=True)
    p_study.add_argument(
        "--jobs", type=int, default=1,
        help="has no effect: levels run one after another; accepted so that "
             "existing command lines keep working")
    p_study.set_defaults(fn=cmd_study)

    p_check = sub.add_parser("check-law", help="validate the law and report constants")
    p_check.add_argument("config")
    p_check.set_defaults(fn=cmd_check_law)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvexityError, EvolutionError) as exc:
        print(_solver_failure(exc), file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
