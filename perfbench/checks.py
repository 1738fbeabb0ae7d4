"""Correctness gate on the files one ``cohesim run`` or ``study`` wrote.

Every repetition is checked; a repetition with any error counts as failed.

- KKT: every column of ``kkt.csv`` is exactly 0 at every step.
- Energy: ``max |R|`` from ``energies.csv`` stays within the workload's
  reference bound.
- Tractions (``tractions.csv``, interior interface nodes): the transmission
  defect stays within the test-suite tolerance
  ``10 * tol * (1 + max|f_k|) / min w_j`` (``tol`` = 1e-10, the solver
  default) and ``|sigma nu| <= psi_hat'(0) * (1 + 1e-8)``.
- VTK: one frame per snapshot step when the scenario asks for VTK.
- Study: every level ``ok`` with zero KKT violation, the energy residual
  shrinking level to level, and the empirical order of level 0 within 0.1
  of 1.
"""

from __future__ import annotations

import csv
import glob
import os

import numpy as np

SOLVER_TOL = 1e-10
ORDER_TOL = 0.1
KKT_COLUMNS = ("admissibility", "complementarity", "slope", "xi_monotone")


def read_columns(path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return {key: [row[key] for row in rows] for key in rows[0]}


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def check_run_dir(out_dir, record, energy_ref: float, vtk: bool):
    """Return (errors, max_energy_residual, max_kkt_violation) for one run."""
    errors = []
    n = record.n_steps
    energies = read_columns(os.path.join(out_dir, "energies.csv"))
    kkt = read_columns(os.path.join(out_dir, "kkt.csv"))
    tractions = read_columns(os.path.join(out_dir, "tractions.csv"))
    if len(energies["step"]) != n + 1 or len(kkt["step"]) != n + 1:
        errors.append(f"{out_dir}: expected {n + 1} rows in energies/kkt")
    if len(tractions["step"]) != n:
        errors.append(f"{out_dir}: expected {n} rows in tractions.csv")

    max_r = float(np.abs(_floats(energies["R"])).max())
    if not max_r <= energy_ref:
        errors.append(f"{out_dir}: max |R| {max_r:.6e} above reference {energy_ref:.6e}")
    max_kkt = max(float(_floats(kkt[c]).max()) for c in KKT_COLUMNS)
    if max_kkt != 0.0:
        errors.append(f"{out_dir}: KKT violation {max_kkt!r}")

    w_min = float(record.ops.weights.min())
    for step, t, defect, s_plus, s_minus, bound in zip(
            tractions["step"], _floats(tractions["t"]),
            _floats(tractions["max_transmission_defect"]),
            _floats(tractions["max_abs_sigma_plus"]),
            _floats(tractions["max_abs_sigma_minus"]),
            _floats(tractions["traction_bound"])):
        f_k = record.loads.at(min(t, record.loads.t_final))
        tol = 10.0 * SOLVER_TOL * (1.0 + float(np.abs(f_k).max())) / w_min
        if not defect <= tol:
            errors.append(f"{out_dir}: step {step} transmission defect {defect:.3e} > {tol:.3e}")
        if not max(s_plus, s_minus) <= bound * (1.0 + 1e-8):
            errors.append(f"{out_dir}: step {step} |sigma nu| above psi_hat'(0) = {bound!r}")

    if vtk:
        frames = len(glob.glob(os.path.join(out_dir, "fields_*.vtk")))
        if frames != len(record.snapshot_steps):
            errors.append(f"{out_dir}: {frames} VTK frames, expected "
                          f"{len(record.snapshot_steps)}")
    return errors, max_r, max_kkt


def check_run(out_dir, records, energy_ref: float, vtk: bool):
    if len(records) != 1:
        return [f"expected one evolution run, saw {len(records)}"], None, None
    return check_run_dir(out_dir, records[0], energy_ref, vtk)


def check_study(out_root, records, energy_ref: float):
    """Check ``study.csv`` and every level directory of a tau study."""
    errors = []
    study = read_columns(os.path.join(out_root, "study.csv"))
    levels = len(study["level"])
    by_steps = {rec.n_steps: rec for rec in records}
    if len(records) != levels or len(by_steps) != levels:
        return [f"expected {levels} runs with distinct step counts"], None, None

    for status in study["status"]:
        if status != "ok":
            errors.append(f"study level status {status!r}")
    residuals = _floats(study["max_energy_residual"])
    if np.any(np.diff(residuals) >= 0.0):
        errors.append(f"energy residual does not shrink under refinement: {residuals}")
    order = float(study["order"][0])
    if not abs(order - 1.0) <= ORDER_TOL:
        errors.append(f"empirical order {order!r} not within {ORDER_TOL} of 1")

    max_r = max_kkt = 0.0
    for level, steps in zip(study["level"], study["parameter"]):
        out_dir = os.path.join(out_root, f"level_{int(level):02d}")
        rec = by_steps.get(int(steps))
        if rec is None:
            errors.append(f"no run with {steps} steps for level {level}")
            continue
        level_errors, r, k = check_run_dir(out_dir, rec, energy_ref, vtk=False)
        errors += level_errors
        max_r, max_kkt = max(max_r, r), max(max_kkt, k)
    return errors, max_r, max_kkt
