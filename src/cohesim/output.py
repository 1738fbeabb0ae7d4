"""CSV ledgers and binary legacy VTK frames.

CSV numbers are written with shortest round-trip ``repr``.  A VTK frame keeps
its header lines in ASCII under a ``BINARY`` third line, writes ``POINTS`` and
the nodal scalars as big-endian float64 and ``CELLS`` and ``CELL_TYPES`` as
big-endian int32, and ends each binary block with a newline; float64 stores
each value exactly, as ``repr`` does.  So identical runs produce bit-identical
files with the same numpy/scipy/BLAS build and BLAS thread count.  A
multithreaded BLAS may sum a long dot product in another order: with OpenBLAS
0.3.31, the 64x32 unloading tent's ``energies.csv`` differs by up to 6.2e-14
and its ``tractions.csv`` by up to 6.0e-12 between one and two BLAS threads.
CSV headers are part of the public contract:

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
    "vtk_geometry",
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


def _write_columns(path, header: str, columns) -> None:
    """One line per row of the equal-length numeric ``columns``.  Integer
    columns print as integers, float columns with ``repr``, as ``_fmt``
    prints them cell by cell."""
    cells = [np.asarray(column).tolist() for column in columns]
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines([",".join(map(repr, row)) + "\n" for row in zip(*cells)])


def _write_steps(path, header: str, table) -> None:
    """One row per step: its index, then the column of ``table`` named by
    each further header field (``t`` reads ``ts``)."""
    columns = [getattr(table, "ts" if name == "t" else name)
               for name in header.split(",")[1:]]
    _write_columns(path, header, [np.arange(len(columns[0])), *columns])


def write_energy_csv(path, ledger: EnergyLedger) -> None:
    _write_steps(path, ENERGY_HEADER, ledger)


def write_kkt_csv(path, report: KKTReport) -> None:
    _write_steps(path, KKT_HEADER, report)


def write_traction_csv(path, ts, field: TractionField) -> None:
    """One row per step ``1..len(ts)`` at the times ``ts``, from ``field``,
    the tractions of those steps stacked one row per step.

    Each maximum is that of the absolute values over the interior interface
    pairs, reduced once per column over all rows: zero where no pair is
    interior.
    """
    columns = [np.arange(1, len(ts) + 1), ts]
    for name in ("sigma_plus", "sigma_minus", "transmission_defect", "cohesive_defect"):
        columns.append(np.where(field.interior, np.abs(getattr(field, name)), 0.0)
                       .max(axis=-1, initial=0.0))
    columns.append(np.full(len(ts), field.bound))
    _write_columns(path, TRACTION_HEADER, columns)


def write_study_csv(path, rows) -> None:
    _write_rows(path, STUDY_HEADER, rows)


def vtk_geometry(mesh) -> bytes:
    """The part of a VTK frame set by the mesh alone: header, ``POINTS``,
    ``CELLS``, ``CELL_TYPES`` and the ``POINT_DATA`` line."""
    n, m = mesh.n_nodes, mesh.triangles.shape[0]
    points = np.zeros((n, 3), dtype=">f8")
    points[:, :2] = mesh.nodes
    cells = np.empty((m, 4), dtype=">i4")
    cells[:, 0] = 3
    cells[:, 1:] = mesh.triangles
    return b"".join([
        b"# vtk DataFile Version 2.0\ncohesim fields\nBINARY\nDATASET UNSTRUCTURED_GRID\n",
        f"POINTS {n} double\n".encode(), points.tobytes(), b"\n",
        f"CELLS {m} {4 * m}\n".encode(), cells.tobytes(), b"\n",
        f"CELL_TYPES {m}\n".encode(), np.full(m, 5, dtype=">i4").tobytes(), b"\n",
        f"POINT_DATA {n}\n".encode()])


def write_vtk_frame(path, mesh, point_fields: dict, geometry: bytes | None = None) -> None:
    """Binary legacy unstructured-grid frame with nodal scalar fields.

    ``geometry`` is ``vtk_geometry(mesh)``; a caller writing several frames
    of one mesh builds it once and passes it to each.
    """
    parts = [geometry if geometry is not None else vtk_geometry(mesh)]
    for name, values in point_fields.items():
        parts += [f"SCALARS {name} double\nLOOKUP_TABLE default\n".encode(),
                  np.asarray(values, dtype=">f8").tobytes(), b"\n"]
    with open(path, "wb") as f:
        f.writelines(parts)


def interface_field_on_nodes(mesh, values: np.ndarray) -> np.ndarray:
    """Scatter a per-pair interface field onto both paired nodes (0 elsewhere)."""
    out = np.zeros(mesh.n_nodes)
    out[mesh.interface_pairs[:, 0]] = values
    out[mesh.interface_pairs[:, 1]] = values
    return out


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
