"""Test oracles: what the package does not form.  The time loop reads the unit
forms scaled by node, the step's own residual and jumps by pair index; these
form the material operators, the sparse jump operator ``B``, the bulk residual
of two states and the Euler-Lagrange defect independently, so that a test can
compare the two, and reduce one step's tractions cell by cell."""

import json

import numpy as np
import scipy.sparse as sp

from cohesim.assembly import _MASS, Materials, assemble
from cohesim.audit import traction_extraction


def jump_operator(pairs, n_nodes: int) -> sp.csr_matrix:
    """The jump operator ``B`` (n_pairs x n_nodes) of the pairs
    ``(plus, minus)``: row ``j`` is ``+1`` at ``plus_j`` and ``-1`` at
    ``minus_j``, so ``B @ u`` is ``u[plus] - u[minus]``."""
    plus, minus = pairs
    P = plus.size
    rows = np.repeat(np.arange(P), 2)
    cols = np.column_stack([plus, minus]).ravel()
    return sp.csr_matrix((np.tile([1.0, -1.0], P), (rows, cols)), shape=(P, n_nodes))


def node_scaled(ops) -> tuple:
    """``(M, A_eta, A_mu)``: ``diag(rho) M_unit``, ``diag(eta) A_unit`` and
    ``diag(mu) A_unit``, each on the pattern of its unit form."""
    return tuple(sp.csr_matrix((np.repeat(c, np.diff(A.indptr)) * A.data, A.indices, A.indptr),
                               shape=A.shape)
                 for c, A in ((ops.rho, ops.M_unit), (ops.eta, ops.A_unit), (ops.mu, ops.A_unit)))


def per_triangle(mesh, kind: str, coef=None) -> sp.csr_matrix:
    """``sum_T coef_T int_T phi_i phi_j`` (``kind="mass"``) or
    ``sum_T coef_T int_T grad phi_i . grad phi_j`` (``"stiffness"``), with a
    coefficient per triangle (1 when None): the element matrices of all
    triangles at once, ``np.einsum`` for the stiffness, and one COO matrix
    for each form."""
    p = mesh.nodes[mesh.triangles]            # (M, 3, 2)
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    grads = np.empty((p.shape[0], 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * area)[:, None, None]
    unit = _MASS if kind == "mass" else np.einsum("tik,tjk->tij", grads, grads)
    local = unit * (area if coef is None else np.asarray(coef, float) * area)[:, None, None]
    tris = mesh.triangles
    rows, cols = np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def bulk_residual(prev, state, ops, f) -> np.ndarray:
    """``M a + A_eta v + A_mu u - f`` at ``state``, ``a = (v - v_prev) / tau``."""
    M, A_eta, A_mu = node_scaled(ops)
    accel = (state.v - prev.v) / (state.t - prev.t)
    return M @ accel + A_eta @ state.v + A_mu @ state.u - f


def weak_residual(prev, state, ops, law, f) -> float:
    """Sup-norm over the free nodes of the Euler-Lagrange defect at ``state``."""
    r = bulk_residual(prev, state, ops, f)
    B = jump_operator(ops.pairs, ops.n_nodes)
    r += B.T @ (ops.weights * law.dpsi_dw(B @ state.u, state.xi))
    return float(np.abs(r[ops.free_dofs]).max(initial=0.0))


def state_tractions(prev, state, ops, law, f):
    """The traction audit of ``state`` from :func:`bulk_residual` and the
    cohesive traction ``dpsi_dw([u], xi)`` of the state."""
    r = bulk_residual(prev, state, ops, f)
    return traction_extraction(ops, law, tuple(r[nodes] for nodes in ops.pairs),
                               law.dpsi_dw(jump_operator(ops.pairs, ops.n_nodes) @ state.u,
                                           state.xi))


def max_interior(tf, values) -> float:
    """``max |values|`` over the interior pairs of the traction field ``tf``
    (one step's), 0 where no pair is interior."""
    if not np.any(tf.interior):
        return 0.0
    return float(np.abs(values[tf.interior]).max())


def save_mesh(mesh, path) -> None:
    """Write ``mesh`` in the JSON format that ``load_mesh`` reads."""
    doc = {
        "nodes": mesh.nodes.tolist(),
        "triangles": [[*map(int, tri), int(s)] for tri, s in zip(mesh.triangles, mesh.tri_side)],
        "interface_pairs": mesh.interface_pairs.tolist(),
        "dirichlet": mesh.dirichlet_nodes.tolist(),
        "neumann_edges": mesh.neumann_edges.tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def unit_stiffness(mesh) -> sp.csr_matrix:
    """The package's unit-coefficient stiffness ``A_unit`` of ``mesh``, which
    :func:`cohesim.mesh.estimate_trace_constant` takes."""
    return assemble(mesh, Materials.constant(1.0, 1.0, 1.0)).A_unit


def read_vtk_frame(path) -> dict:
    """Parse a binary legacy VTK unstructured grid with nodal scalars.

    Returns the four header lines (``"header"``), the ``(n, 3)`` points, the
    ``(m, 4)`` cells (count, then node indices), the cell types, and a dict
    of the scalars by name, all in native byte order.  Fails on a section,
    size or binary-block terminator other than the format's.
    """
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def line() -> list:
        nonlocal pos
        end = data.index(b"\n", pos)
        words = data[pos:end].decode("ascii").split()
        pos = end + 1
        return words

    def block(dtype: str, count: int) -> np.ndarray:
        nonlocal pos
        values = np.frombuffer(data, dtype, count, pos)
        pos += values.nbytes
        assert data[pos:pos + 1] == b"\n", f"binary block ends at byte {pos} without a newline"
        pos += 1
        return values.astype(dtype.replace(">", "="))

    frame = {"header": [" ".join(line()) for _ in range(4)]}
    assert frame["header"][2] == "BINARY" and frame["header"][3] == "DATASET UNSTRUCTURED_GRID"
    kind, n, dtype = line()
    assert (kind, dtype) == ("POINTS", "double")
    frame["points"] = block(">f8", 3 * int(n)).reshape(-1, 3)
    kind, m, size = line()
    assert kind == "CELLS"
    frame["cells"] = block(">i4", int(size)).reshape(int(m), -1)
    kind, m_types = line()
    assert (kind, m_types) == ("CELL_TYPES", m)
    frame["cell_types"] = block(">i4", int(m))
    assert line() == ["POINT_DATA", n]
    frame["fields"] = {}
    while pos < len(data):
        kind, name, dtype = line()
        assert (kind, dtype) == ("SCALARS", "double") and line() == ["LOOKUP_TABLE", "default"]
        frame["fields"][name] = block(">f8", int(n))
    return frame
