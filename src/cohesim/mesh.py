"""Two-body triangulated geometry with a shared cohesive interface.

The domain is the disjoint union of a plus and a minus body whose boundaries
overlap along a polyline K.  Nodes on K are duplicated: each interface pair
``(plus_node, minus_node)`` holds two geometrically coincident but distinct
degrees of freedom, and the jump of a nodal field is ``u[plus] - u[minus]``.

The remaining boundary is partitioned into a Dirichlet part (homogeneous,
at least one node per body) and a Neumann part (edge list).  Interface
quadrature uses trapezoidal nodal weights ``w_j``; these equal the integral
of the interface hat functions, which keeps the cohesive energy separable
per interface node and makes discrete tractions recoverable nodewise.
The pairs are the one interface representation: :func:`jumps` and every
``B'`` scatter read them by index; the jump operator ``B`` is notation and a
test oracle, and no module builds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeshError",
    "InterfaceMesh",
    "build_rectangle_mesh",
    "load_mesh",
    "scaled",
    "jumps",
    "estimate_trace_constant",
]


class MeshError(ValueError):
    """Invalid mesh topology, tagging, or geometry."""


def _triangle_areas(p: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles with vertices ``p`` (``(M, 3, 2)``)."""
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


@dataclass
class InterfaceMesh:
    """Validated two-body P1 triangulation with duplicated interface DOFs.

    Immutable after construction (arrays are not written to); safe for
    concurrent reads.
    """

    nodes: np.ndarray            # (N, 2)
    triangles: np.ndarray        # (M, 3) vertex indices, CCW
    tri_side: np.ndarray         # (M,) +1 / -1 subdomain tag
    interface_pairs: np.ndarray  # (P, 2) [plus_node, minus_node]
    dirichlet_nodes: np.ndarray  # (D,)
    neumann_edges: np.ndarray    # (E, 2)
    interface_weights: np.ndarray = field(init=False)   # (P,) trapezoid weights
    interface_endpoint: np.ndarray = field(init=False)  # (P,) bool, polyline endpoints

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        self.tri_side = np.asarray(self.tri_side, dtype=np.int64)
        self.interface_pairs = np.asarray(self.interface_pairs, dtype=np.int64)
        self.dirichlet_nodes = np.unique(np.asarray(self.dirichlet_nodes, dtype=np.int64))
        self.neumann_edges = np.asarray(self.neumann_edges, dtype=np.int64).reshape(-1, 2)
        self._validate_and_build()

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.interface_pairs.shape[0]

    @property
    def free_nodes(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.dirichlet_nodes] = False
        return np.flatnonzero(mask)

    def node_side(self) -> np.ndarray:
        """``+1`` or ``-1`` per node, the body that holds it; computed on each call."""
        side = np.full(self.n_nodes, -1)
        side[self.triangles[self.tri_side > 0]] = 1
        return side

    # ------------------------------------------------------------------

    def _validate_and_build(self):
        nodes, tris = self.nodes, self.triangles
        N = self.n_nodes
        if tris.size and (tris.min() < 0 or tris.max() >= N):
            raise MeshError("triangle vertex index out of range")
        areas = _triangle_areas(nodes[tris])
        flip = areas < 0.0
        if np.any(flip):  # normalize to CCW
            self.triangles = tris = tris.copy()
            tris[flip] = tris[flip][:, ::-1]
            areas = np.abs(areas)
        diam = float(np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0)))
        degenerate = np.flatnonzero(areas <= 1e-14 * max(diam, 1.0) ** 2)
        if degenerate.size:
            raise MeshError(f"degenerate (zero-area) triangle {int(degenerate[0])}")
        if not np.all(np.isin(self.tri_side, (-1, 1))):
            raise MeshError("triangle side tag must be +1 or -1")
        if self.tri_side.shape[0] != tris.shape[0]:
            raise MeshError("tri_side length must match triangle count")

        if self.n_pairs == 0:
            raise MeshError("mesh has no interface pairs")
        plus, minus = self.interface_pairs[:, 0], self.interface_pairs[:, 1]
        if np.unique(plus).size != plus.size or np.unique(minus).size != minus.size:
            raise MeshError("interface pair lists repeat a node")
        if np.intersect1d(plus, minus).size:
            raise MeshError("a node appears on both sides of an interface pair")
        gap = np.linalg.norm(nodes[plus] - nodes[minus], axis=1)
        bad = np.flatnonzero(gap > 1e-12 * max(diam, 1.0))
        if bad.size:
            raise MeshError(
                f"interface pair {int(bad[0])} not coincident (distance {gap[bad[0]]:.3e})"
            )
        if np.intersect1d(self.interface_pairs.ravel(), self.dirichlet_nodes).size:
            raise MeshError("interface node tagged Dirichlet (tags must partition the boundary)")

        # node sets per subdomain
        side_nodes = {s: np.unique(tris[self.tri_side == s]) for s in (1, -1)}
        used = np.unique(tris)
        if used.size != N:
            raise MeshError("mesh contains nodes not referenced by any triangle")
        if np.intersect1d(side_nodes[1], side_nodes[-1]).size:
            raise MeshError("a node is shared between the two bodies (must be duplicated)")
        if not np.all(np.isin(plus, side_nodes[1])):
            raise MeshError("plus interface node not on the plus body")
        if not np.all(np.isin(minus, side_nodes[-1])):
            raise MeshError("minus interface node not on the minus body")
        for s in (1, -1):
            if not np.intersect1d(self.dirichlet_nodes, side_nodes[s]).size:
                raise MeshError("empty Dirichlet set on one body")

        # boundary edges = edges adjacent to exactly one triangle
        ends = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, counts = np.unique(ends[:, 0] * N + ends[:, 1], return_counts=True)
        edges = np.column_stack(np.divmod(keys, N))     # sorted (a, b), a < b
        boundary_sorted = [tuple(k) for k in edges[counts == 1].tolist()]
        boundary = set(boundary_sorted)

        neumann_set = set(map(tuple, np.sort(self.neumann_edges, axis=1).tolist()))
        if len(neumann_set) != self.neumann_edges.shape[0]:
            raise MeshError("duplicate Neumann edge")
        missing = neumann_set - boundary
        if missing:
            raise MeshError(f"Neumann edge {sorted(missing)[0]} is not a boundary edge")

        plus_set, minus_set = set(plus.tolist()), set(minus.tolist())
        dir_set = set(self.dirichlet_nodes.tolist())
        iface_edges = []
        for a, b in boundary_sorted:
            on_iface = (a in plus_set and b in plus_set) or (a in minus_set and b in minus_set)
            on_dir = a in dir_set and b in dir_set
            on_neu = (a, b) in neumann_set
            tags = int(on_iface) + int(on_dir) + int(on_neu)
            if tags == 0:
                raise MeshError(f"untagged boundary edge ({a}, {b})")
            if tags > 1:
                raise MeshError(f"boundary edge ({a}, {b}) carries multiple tags")
            if on_iface and a in plus_set:
                iface_edges.append((a, b))
        if not iface_edges:
            raise MeshError("no boundary edges along the interface polyline")

        # the minus side must mirror every plus-side interface edge
        pair_of = dict(zip(plus.tolist(), minus.tolist()))
        for a, b in iface_edges:
            if tuple(sorted((pair_of[a], pair_of[b]))) not in boundary:
                raise MeshError(f"interface edge ({a}, {b}) has no minus-side counterpart")

        # trapezoid weights: half the length of the adjacent interface edges
        w = np.zeros(self.n_pairs)
        idx_of = {int(p): j for j, p in enumerate(plus)}
        adjacency = np.zeros(self.n_pairs, dtype=np.int64)
        for a, b in iface_edges:
            length = float(np.linalg.norm(nodes[a] - nodes[b]))
            for n_ in (int(a), int(b)):
                w[idx_of[n_]] += 0.5 * length
                adjacency[idx_of[n_]] += 1
        if np.any(w <= 0.0):
            raise MeshError("interface pair not connected to any interface edge")
        self.interface_weights = w
        self.interface_endpoint = adjacency == 1


def build_rectangle_mesh(L: float, n_x: int, n_y: int) -> InterfaceMesh:
    """Structured crossed-triangle mesh of ``(0, L) x (-1, 1)`` split at ``y = 0``.

    Each body is an ``n_x x n_y`` grid of cells, each cut into four triangles
    through its center (no diagonal bias across the interface).  Nodes on
    ``y = 0`` are duplicated; the top and bottom edges are Dirichlet; the
    lateral edges are Neumann.
    """
    if L <= 0.0:
        raise MeshError("rectangle length must be positive")
    if n_x < 1 or n_y < 1:
        raise MeshError("cell counts must be >= 1")
    hx, hy = L / n_x, 1.0 / n_y
    xi, yj = np.arange(n_x + 1), np.arange(n_y + 1)
    cj, ci = np.divmod(np.arange(n_x * n_y), n_x)      # cell (i, j), row by row

    def body(y0: float, offset: int):
        corners = np.column_stack([np.tile(xi * hx, n_y + 1),
                                   np.repeat(y0 + yj * hy, n_x + 1)])
        centers = np.column_stack([(ci + 0.5) * hx, y0 + (cj + 0.5) * hy])

        def cid(i, j):
            return offset + j * (n_x + 1) + i

        c0, c1 = cid(ci, cj), cid(ci + 1, cj)
        c2, c3 = cid(ci + 1, cj + 1), cid(ci, cj + 1)
        m = offset + corners.shape[0] + np.arange(n_x * n_y)
        tris = np.column_stack([c0, c1, m, c1, c2, m, c2, c3, m, c3, c0, m]).reshape(-1, 3)
        return np.vstack([corners, centers]), tris, cid

    plus_nodes, plus_tris, plus_cid = body(0.0, 0)
    off = plus_nodes.shape[0]
    minus_nodes, minus_tris, minus_cid = body(-1.0, off)

    nodes = np.vstack([plus_nodes, minus_nodes])
    triangles = np.vstack([plus_tris, minus_tris])
    tri_side = np.concatenate([np.ones(len(plus_tris), dtype=np.int64),
                               -np.ones(len(minus_tris), dtype=np.int64)])

    pairs = np.column_stack([plus_cid(xi, 0), minus_cid(xi, n_y)])
    dirichlet = np.concatenate([plus_cid(xi, n_y), minus_cid(xi, 0)])
    # per row j: left and right edge of the plus body, then of the minus body
    neumann = np.stack([np.column_stack([body_cid(i, yj[:-1]), body_cid(i, yj[1:])])
                        for body_cid in (plus_cid, minus_cid) for i in (0, n_x)], axis=1)

    return InterfaceMesh(nodes, triangles, tri_side, pairs, dirichlet, neumann.reshape(-1, 2))


def scaled(mesh: InterfaceMesh, factor: float) -> InterfaceMesh:
    """Geometrically similar mesh with all coordinates multiplied by ``factor``."""
    if factor <= 0.0:
        raise MeshError("scale factor must be positive")
    return InterfaceMesh(mesh.nodes * factor, mesh.triangles, mesh.tri_side,
                         mesh.interface_pairs, mesh.dirichlet_nodes, mesh.neumann_edges)


def load_mesh(path) -> InterfaceMesh:
    """Read the JSON mesh format (all indices 0-based) and validate it."""
    with open(path) as f:
        doc = json.load(f)
    try:
        tri = np.asarray(doc["triangles"], dtype=np.int64).reshape(-1, 4)
        return InterfaceMesh(
            np.asarray(doc["nodes"], dtype=float),
            tri[:, :3],
            tri[:, 3],
            np.asarray(doc["interface_pairs"], dtype=np.int64).reshape(-1, 2),
            np.asarray(doc["dirichlet"], dtype=np.int64),
            np.asarray(doc["neumann_edges"], dtype=np.int64).reshape(-1, 2),
        )
    except KeyError as exc:
        raise MeshError(f"mesh file missing section {exc}") from exc


def jumps(u: np.ndarray, pairs) -> np.ndarray:
    """``u[plus] - u[minus]`` for the pairs ``(plus, minus)``, bit for bit the
    product ``B @ u``: a row of ``B`` sums from ``+0.0``, so no jump is ``-0.0``."""
    plus, minus = pairs
    return (0.0 + u[plus]) - u[minus]


def estimate_trace_constant(mesh: InterfaceMesh, A_unit) -> float:
    """Smallest discrete Rayleigh quotient ``|grad u|^2 / |[u]|^2`` over the mesh.

    Computed as ``1 / lambda_max(W^1/2 B A^-1 B^T W^1/2)`` where ``A`` is the
    unit-coefficient stiffness ``A_unit`` of ``mesh`` (``assemble(mesh,
    materials).A_unit`` for any materials), Dirichlet nodes eliminated by
    :class:`~cohesim.assembly.InterfaceSchur`, ``B`` the jump operator and
    ``W`` the interface weights: minimizing ``u' A u`` subject to prescribed
    jumps reduces the quotient to the Schur complement on the interface.
    The result is a purely geometric constant (scales like ``1/l`` under
    domain scaling by ``l``).
    """
    from .assembly import InterfaceSchur

    if mesh.n_pairs == 0:
        raise MeshError("trace constant requires interface pairs")
    lam_max = InterfaceSchur(A_unit, mesh.interface_pairs.T,
                             mesh.free_nodes).lambda_max(mesh.interface_weights)
    if lam_max <= 0.0:
        raise MeshError("interface Schur complement is singular")
    return 1.0 / lam_max
