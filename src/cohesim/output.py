"""CSV ledgers and legacy-ASCII VTK frames.

All numbers are written with shortest round-trip ``repr``, so identical runs
produce bit-identical files.  Headers are part of the public contract:

energies.csv   step,t,E,K,Psi,Psi_s,Psi_d,D_cum,P_cum,R,R_split
kkt.csv        step,t,admissibility,complementarity,slope,xi_monotone
tractions.csv  step,t,max_abs_sigma_plus,max_abs_sigma_minus,
               max_transmission_defect,max_cohesive_defect,traction_bound
               (maxima over interior interface nodes; endpoints excluded)
study.csv      level,parameter,status,max_energy_residual,max_kkt_violation,
               distance_to_next,order
"""

from __future__ import annotations

import os

import numpy as np

from .audit import EnergyLedger, KKTReport, TractionField

__all__ = [
    "ENERGY_HEADER",
    "KKT_HEADER",
    "TRACTION_HEADER",
    "STUDY_HEADER",
    "write_energy_csv",
    "write_kkt_csv",
    "write_traction_csv",
    "write_study_csv",
    "write_vtk_frame",
]

ENERGY_HEADER = "step,t,E,K,Psi,Psi_s,Psi_d,D_cum,P_cum,R,R_split"
KKT_HEADER = "step,t,admissibility,complementarity,slope,xi_monotone"
TRACTION_HEADER = ("step,t,max_abs_sigma_plus,max_abs_sigma_minus,"
                   "max_transmission_defect,max_cohesive_defect,traction_bound")
STUDY_HEADER = ("level,parameter,status,max_energy_residual,max_kkt_violation,"
                "distance_to_next,order")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_rows(path, header: str, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_steps(path, header: str, table) -> None:
    """One row per step: its index, then the column of ``table`` named by
    each further header field (``t`` reads ``ts``)."""
    columns = [getattr(table, "ts" if name == "t" else name)
               for name in header.split(",")[1:]]
    _write_rows(path, header, zip(range(len(columns[0])), *columns))


def write_energy_csv(path, ledger: EnergyLedger) -> None:
    _write_steps(path, ENERGY_HEADER, ledger)


def write_kkt_csv(path, report: KKTReport) -> None:
    _write_steps(path, KKT_HEADER, report)


def write_traction_csv(path, rows) -> None:
    """``rows``: iterable of (step, t, TractionField)."""
    table = []
    for step, t, tf in rows:
        table.append((step, t,
                      tf.max_interior(tf.sigma_plus),
                      tf.max_interior(tf.sigma_minus),
                      tf.max_interior(tf.transmission_defect),
                      tf.max_interior(tf.cohesive_defect),
                      tf.bound))
    _write_rows(path, TRACTION_HEADER, table)


def write_study_csv(path, rows) -> None:
    _write_rows(path, STUDY_HEADER, rows)


def write_vtk_frame(path, mesh, point_fields: dict) -> None:
    """Legacy ASCII unstructured-grid frame with nodal scalar fields."""
    tris = mesh.triangles
    m = tris.shape[0]
    parts = ["# vtk DataFile Version 2.0\ncohesim fields\nASCII\nDATASET UNSTRUCTURED_GRID\n"
             f"POINTS {mesh.n_nodes} double\n",
             "".join([f"{x!r} {y!r} 0\n" for x, y in mesh.nodes.tolist()]),
             f"CELLS {m} {4 * m}\n",
             "".join([f"3 {a} {b} {c}\n" for a, b, c in tris.tolist()]),
             f"CELL_TYPES {m}\n", "5\n" * m,
             f"POINT_DATA {mesh.n_nodes}\n"]
    for name, values in point_fields.items():
        parts += [f"SCALARS {name} double\nLOOKUP_TABLE default\n",
                  "".join([f"{v!r}\n" for v in np.asarray(values, dtype=float).tolist()])]
    with open(path, "w") as f:
        f.write("".join(parts))


def interface_field_on_nodes(mesh, values: np.ndarray) -> np.ndarray:
    """Scatter a per-pair interface field onto both paired nodes (0 elsewhere)."""
    out = np.zeros(mesh.n_nodes)
    out[mesh.interface_pairs[:, 0]] = values
    out[mesh.interface_pairs[:, 1]] = values
    return out


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
