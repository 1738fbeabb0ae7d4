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

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MeshError", "InterfaceMesh", "build_rectangle_mesh", "load_mesh", "scaled", "jumps",
           "estimate_trace_constant"]


class MeshError(ValueError):
    """Invalid mesh topology, tagging, or geometry."""


# triangles per block of a pass over their vertex coordinates: no (M, 3, 2) array
_BLOCK = 8192


def _vertex_blocks(nodes: np.ndarray, triangles: np.ndarray):
    """Per block of ``_BLOCK`` triangles: its slice, its vertices' ``x`` and ``y`` (3, b)."""
    for s in range(0, len(triangles), _BLOCK):
        t = triangles[s:s + _BLOCK].T
        yield slice(s, s + _BLOCK), nodes[:, 0][t], nodes[:, 1][t]


def _array(name: str, val, dtype, width=None) -> np.ndarray:
    """``val`` as a C-contiguous ``dtype`` array, 1-D or of rows of ``width``,
    not copied if it is one; else a :class:`MeshError` naming ``name``: for
    another shape, or an entry that is not a number (a whole one for ints).
    A boolean entry is no number either, also in a list that numpy reads as
    numbers."""
    shape = "(n,)" if width is None else f"(n, {width})"
    try:
        a = np.asarray(val)
    except ValueError:      # ragged rows
        raise MeshError(f"{name} must be an array of shape {shape}") from None
    if width is not None and a.size == 0:
        a = a.reshape(0, width)     # an empty list has no columns
    if a.shape[1:] != (() if width is None else (width,)) or a.ndim == 0:
        raise MeshError(f"{name} must be an array of shape {shape}")
    # numpy reads a boolean among numbers as 0 or 1: only the list still shows it
    listed_bool = isinstance(val, (list, tuple)) and any(
        isinstance(x, (bool, np.bool_)) for x in (itertools.chain(*val) if width else val))
    if a.dtype.kind in "iuf" and not listed_bool:
        with np.errstate(invalid="ignore"):     # a NaN or one out of range casts to garbage
            cast = a.astype(dtype, copy=False)
        if cast is a or np.array_equal(cast, a):
            return np.ascontiguousarray(cast)
    whole = np.issubdtype(dtype, np.integer)
    raise MeshError(f"{name} must hold {'whole ' if whole else ''}numbers")


def _triangle_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles ``(M, 3)`` of ``nodes``."""
    area = np.empty(len(triangles))
    for b, (x0, x1, x2), (y0, y1, y2) in _vertex_blocks(nodes, triangles):
        area[b] = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    return area


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
    interface_interior: np.ndarray = field(init=False)  # (P,) bool, ~interface_endpoint

    def __post_init__(self):
        self.nodes = _array("nodes", self.nodes, np.float64, 2)
        self.triangles = _array("triangles", self.triangles, np.int64, 3)
        self.tri_side = _array("tri_side", self.tri_side, np.int64)
        self.interface_pairs = _array("interface_pairs", self.interface_pairs, np.int64, 2)
        self.dirichlet_nodes = _array("dirichlet_nodes", self.dirichlet_nodes, np.int64)
        self.neumann_edges = _array("neumann_edges", self.neumann_edges, np.int64, 2)
        self._validate_and_build()

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

    def _validate_and_build(self):
        nodes, tris, side, N = self.nodes, self.triangles, self.tri_side, self.n_nodes
        if not np.isfinite(nodes).all():
            raise MeshError("node coordinates must be finite")
        for name, index in (("triangle vertex", tris), ("interface_pairs", self.interface_pairs),
                            ("dirichlet_nodes", self.dirichlet_nodes),
                            ("neumann_edges", self.neumann_edges)):
            if index.size and (index.min() < 0 or index.max() >= N):
                raise MeshError(f"{name} index out of range")
        with np.errstate(over="ignore", invalid="ignore"):     # an overflow is named below
            areas = _triangle_areas(nodes, tris)
            extent = nodes.max(axis=0) - nodes.min(axis=0)
            diam_sq = float(extent @ extent)
        if not (np.isfinite(diam_sq) and np.isfinite(areas).all()):
            raise MeshError("node coordinates overflow the mesh diameter or a triangle area")
        if np.any(areas < 0.0):  # normalize to CCW
            self.triangles = tris = tris.copy()
            tris[areas < 0.0] = tris[areas < 0.0][:, ::-1]
        diam = float(np.sqrt(diam_sq))       # np.linalg.norm(extent), bit for bit
        degenerate = np.flatnonzero(np.abs(areas) <= 1e-14 * max(diam, 1.0) ** 2)
        if degenerate.size:
            raise MeshError(f"degenerate (zero-area) triangle {int(degenerate[0])}")
        del areas
        if not np.all((side == 1) | (side == -1)):
            raise MeshError("triangle side tag must be +1 or -1")
        if side.shape[0] != tris.shape[0]:
            raise MeshError("tri_side length must match triangle count")

        # node sets as masks over the nodes
        if self.n_pairs == 0:
            raise MeshError("mesh has no interface pairs")
        plus, minus = self.interface_pairs[:, 0], self.interface_pairs[:, 1]
        is_plus, is_minus, is_dir = (np.zeros(N, dtype=bool) for _ in range(3))
        is_plus[plus], is_minus[minus], is_dir[self.dirichlet_nodes] = True, True, True
        self.dirichlet_nodes = d = np.flatnonzero(is_dir)     # sorted, each node once
        if np.count_nonzero(is_plus) < plus.size or np.count_nonzero(is_minus) < minus.size:
            raise MeshError("interface pair lists repeat a node")
        if np.any(is_plus[minus]):
            raise MeshError("a node appears on both sides of an interface pair")
        gap = np.linalg.norm(nodes[plus] - nodes[minus], axis=1)
        bad = np.flatnonzero(gap > 1e-12 * max(diam, 1.0))
        if bad.size:
            raise MeshError(f"interface pair {int(bad[0])} not coincident "
                            f"(distance {gap[bad[0]]:.3e})")
        if np.any(is_dir[self.interface_pairs]):
            raise MeshError("interface node tagged Dirichlet (tags must partition the boundary)")

        # triangles at each node, and plus ones minus minus ones: +-count on one body
        count = np.bincount(tris.ravel(), minlength=N)
        balance = sum(np.bincount(tris[:, k], weights=side, minlength=N) for k in range(3))
        if not np.all(count):
            raise MeshError("mesh contains nodes not referenced by any triangle")
        if np.any(np.abs(balance) != count):
            raise MeshError("a node is shared between the two bodies (must be duplicated)")
        if not np.all(balance[plus] > 0):
            raise MeshError("plus interface node not on the plus body")
        if not np.all(balance[minus] < 0):
            raise MeshError("minus interface node not on the minus body")
        if not (np.any(balance[d] > 0) and np.any(balance[d] < 0)):
            raise MeshError("empty Dirichlet set on one body")
        del count, balance

        # boundary edges = edges adjacent to exactly one triangle, as sorted keys
        # a * N + b of their ends a < b
        def key(a, b, out=None):     # a + b + min(a, b) * (N - 1), with no temporary
            out = np.multiply(np.minimum(a, b, out=out), N - 1, out=out)
            out += a
            out += b
            return out

        def where(k):   # positions of the keys k in boundary, -1 for one not there
            at = np.searchsorted(boundary, k)
            return np.where(np.append(boundary, -1)[at] == k, at, -1)

        keys = np.empty((3, len(tris)), dtype=np.int32 if N * N < 2**31 else np.int64)
        for k in range(3):
            key(tris[:, k], tris[:, (k + 1) % 3], out=keys[k])
        keys = keys.ravel()
        keys.sort()
        starts = np.r_[True, keys[1:] != keys[:-1], True]     # where a run of equal keys starts
        boundary = keys[starts[:-1] & starts[1:]]

        neumann = np.sort(key(self.neumann_edges[:, 0], self.neumann_edges[:, 1]))
        if np.any(neumann[1:] == neumann[:-1]):
            raise MeshError("duplicate Neumann edge")
        at = where(neumann)
        if np.any(at < 0):
            raise MeshError(f"Neumann edge {divmod(int(neumann[at < 0][0]), N)} "
                            "is not a boundary edge")
        # a boundary edge carries one tag: interface, Dirichlet or Neumann
        a, b = np.divmod(boundary, N)
        on_plus = is_plus[a] & is_plus[b]
        tags = (on_plus | (is_minus[a] & is_minus[b])).astype(int) + (is_dir[a] & is_dir[b])
        tags[at] += 1
        if np.any(tags != 1):
            j = np.flatnonzero(tags != 1)[0]
            edge = (int(a[j]), int(b[j]))
            raise MeshError(f"untagged boundary edge {edge}" if tags[j] == 0
                            else f"boundary edge {edge} carries multiple tags")
        a, b = a[on_plus], b[on_plus]
        if a.size == 0:
            raise MeshError("no boundary edges along the interface polyline")

        # the minus side must mirror every plus-side interface edge
        pair_of = np.zeros(N, dtype=np.int64)
        pair_of[plus] = np.arange(plus.size)
        missing = np.flatnonzero(where(key(minus[pair_of[a]], minus[pair_of[b]])) < 0)
        if missing.size:
            j = missing[0]
            raise MeshError(f"interface edge ({a[j]}, {b[j]}) has no minus-side counterpart")

        # trapezoid weights: half the length of the adjacent interface edges,
        # summed edge by edge in key order
        ends = pair_of[np.column_stack([a, b]).ravel()]
        half = [0.5 * float(np.linalg.norm(d)) for d in nodes[a] - nodes[b]]
        w = np.bincount(ends, weights=np.repeat(half, 2), minlength=self.n_pairs)
        if np.any(w <= 0.0):
            raise MeshError("interface pair not connected to any interface edge")
        self.interface_weights = w
        self.interface_endpoint = np.bincount(ends, minlength=self.n_pairs) == 1
        self.interface_interior = ~self.interface_endpoint


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
    n_corners = (n_x + 1) * (n_y + 1)
    n_body = n_corners + n_x * n_y

    def cid(i, j, body=0):   # corner (i, j) of the plus (0) or the minus (1) body
        return body * n_body + j * (n_x + 1) + i

    # the plus body; the minus body is the plus body one lower
    nodes = np.vstack([np.column_stack([np.tile(xi * hx, n_y + 1), np.repeat(yj * hy, n_x + 1)]),
                       np.column_stack([(ci + 0.5) * hx, (cj + 0.5) * hy])])
    nodes = np.vstack([nodes, nodes - [0.0, 1.0]])
    c0, c1, c2, c3 = cid(ci, cj), cid(ci + 1, cj), cid(ci + 1, cj + 1), cid(ci, cj + 1)
    m = n_corners + np.arange(n_x * n_y)
    tris = np.column_stack([c0, c1, m, c1, c2, m, c2, c3, m, c3, c0, m]).reshape(-1, 3)
    tris = np.vstack([tris, tris + n_body])
    tri_side = np.repeat(np.array([1, -1], dtype=np.int64), len(tris) // 2)
    del ci, cj, c0, c1, c2, c3, m

    pairs = np.column_stack([cid(xi, 0), cid(xi, n_y, 1)])
    dirichlet = np.concatenate([cid(xi, n_y), cid(xi, 0, 1)])
    # per row j: left and right edge of the plus body, then of the minus body
    neumann = np.stack([np.column_stack([cid(i, yj[:-1], body), cid(i, yj[1:], body)])
                        for body in (0, 1) for i in (0, n_x)], axis=1)
    return InterfaceMesh(nodes, tris, tri_side, pairs, dirichlet, neumann.reshape(-1, 2))


def scaled(mesh: InterfaceMesh, factor: float) -> InterfaceMesh:
    """Geometrically similar mesh with all coordinates multiplied by ``factor``."""
    if factor <= 0.0:
        raise MeshError("scale factor must be positive")
    with np.errstate(over="ignore"):      # an infinite coordinate fails the validation
        nodes = mesh.nodes * factor
    try:
        return InterfaceMesh(nodes, mesh.triangles, mesh.tri_side,
                             mesh.interface_pairs, mesh.dirichlet_nodes, mesh.neumann_edges)
    except MeshError as exc:      # the mesh was valid: the scale is at fault
        raise MeshError(f"scale factor {factor!r}: {exc}") from exc


def load_mesh(path) -> InterfaceMesh:
    """Read the JSON mesh format (all indices 0-based) and validate it."""
    with open(path, encoding="utf-8", errors="replace") as f:   # a non-UTF-8 byte is U+FFFD
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise MeshError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise MeshError("a mesh file must hold a JSON object")
    try:
        tri = _array("triangles", doc["triangles"], np.int64, 4)
        return InterfaceMesh(doc["nodes"], tri[:, :3], tri[:, 3], doc["interface_pairs"],
                             doc["dirichlet"], doc["neumann_edges"])
    except KeyError as exc:
        raise MeshError(f"mesh file missing section {exc}") from exc


def jumps(u: np.ndarray, pairs) -> np.ndarray:
    """``u[plus] - u[minus]`` for the pairs ``(plus, minus)``, bit for bit the
    product ``B @ u``: a row of ``B`` sums from ``+0.0``, so no jump is ``-0.0``.
    ``u`` is read once, at ``pairs`` as a ``(2, n_pairs)`` index."""
    g = u[np.asarray(pairs)]
    return (0.0 + g[0]) - g[1]


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
