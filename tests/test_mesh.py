"""Mesh generator, file round-trip, validation diagnostics and trace constant."""

import json
import re

import numpy as np
import pytest

from cohesim.mesh import (
    InterfaceMesh,
    MeshError,
    build_rectangle_mesh,
    estimate_trace_constant,
    jumps,
    load_mesh,
    scaled,
)

from oracles import jump_operator, per_triangle, save_mesh, unit_stiffness


class TestRectangleGenerator:
    def test_minimal_mesh_counts_and_weights(self):
        mesh = build_rectangle_mesh(1.0, 1, 1)
        assert mesh.n_pairs == 2
        assert mesh.interface_weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(mesh.interface_endpoint)

    def test_pair_count_follows_grid(self):
        mesh = build_rectangle_mesh(2.0, 4, 2)
        assert mesh.n_pairs == 5
        assert mesh.interface_weights.sum() == pytest.approx(2.0, abs=1e-14)
        assert mesh.interface_endpoint.sum() == 2

    def test_jump_of_constant_field_vanishes(self):
        mesh = build_rectangle_mesh(1.5, 3, 2)
        assert np.all(jumps(np.ones(mesh.n_nodes), mesh.interface_pairs.T) == 0.0)

    def test_node_side_is_the_body_whose_triangles_hold_the_node(self):
        mesh = build_rectangle_mesh(1.0, 3, 2)
        side = mesh.node_side()
        for s in (1, -1):
            assert np.array_equal(np.flatnonzero(side == s),
                                  np.unique(mesh.triangles[mesh.tri_side == s]))

    def test_jump_linearity(self):
        mesh = build_rectangle_mesh(1.0, 2, 2)
        pairs = mesh.interface_pairs.T
        rng = np.random.default_rng(0)
        u = rng.normal(size=mesh.n_nodes)
        w = rng.normal(size=mesh.n_nodes)
        lhs = jumps(2.5 * u - 0.5 * w, pairs)
        rhs = 2.5 * jumps(u, pairs) - 0.5 * jumps(w, pairs)
        # linear by construction; only float re-association separates the two
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-14 * np.abs(rhs).max())

    def test_bodies_do_not_share_nodes(self):
        mesh = build_rectangle_mesh(1.0, 3, 1)
        plus_nodes = np.unique(mesh.triangles[mesh.tri_side > 0])
        minus_nodes = np.unique(mesh.triangles[mesh.tri_side < 0])
        assert np.intersect1d(plus_nodes, minus_nodes).size == 0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(MeshError):
            build_rectangle_mesh(-1.0, 2, 2)
        with pytest.raises(MeshError):
            build_rectangle_mesh(1.0, 0, 2)


def loop_rectangle_arrays(L, n_x, n_y):
    """The per-cell loop construction that build_rectangle_mesh replaced."""
    hx, hy = L / n_x, 1.0 / n_y

    def body(y0, offset):
        xs = np.arange(n_x + 1) * hx
        ys = y0 + np.arange(n_y + 1) * hy
        corners = np.array([[x, y] for y in ys for x in xs])
        centers = np.array([[(i + 0.5) * hx, y0 + (j + 0.5) * hy]
                            for j in range(n_y) for i in range(n_x)])

        def cid(i, j):
            return offset + j * (n_x + 1) + i

        tris = []
        for j in range(n_y):
            for i in range(n_x):
                c0, c1, c2, c3 = cid(i, j), cid(i + 1, j), cid(i + 1, j + 1), cid(i, j + 1)
                m = offset + corners.shape[0] + j * n_x + i
                tris += [(c0, c1, m), (c1, c2, m), (c2, c3, m), (c3, c0, m)]
        return np.vstack([corners, centers]), np.array(tris), cid

    plus_nodes, plus_tris, pc = body(0.0, 0)
    minus_nodes, minus_tris, mc = body(-1.0, plus_nodes.shape[0])
    neumann = []
    for j in range(n_y):
        neumann += [(pc(0, j), pc(0, j + 1)), (pc(n_x, j), pc(n_x, j + 1)),
                    (mc(0, j), mc(0, j + 1)), (mc(n_x, j), mc(n_x, j + 1))]
    return {
        "nodes": np.vstack([plus_nodes, minus_nodes]),
        "triangles": np.vstack([plus_tris, minus_tris]),
        "tri_side": np.concatenate([np.ones(len(plus_tris), dtype=np.int64),
                                    -np.ones(len(minus_tris), dtype=np.int64)]),
        "interface_pairs": np.array([[pc(i, 0), mc(i, n_y)] for i in range(n_x + 1)]),
        "dirichlet_nodes": np.unique([pc(i, n_y) for i in range(n_x + 1)]
                                     + [mc(i, 0) for i in range(n_x + 1)]),
        "neumann_edges": np.array(neumann),
    }


def loop_edge_counts(triangles):
    """Triangles adjacent to each edge, counted edge by edge."""
    count = {}
    for tri in triangles.tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            count[key] = count.get(key, 0) + 1
    return count


class TestVectorizedBuild:
    @pytest.mark.parametrize("n_x, n_y", [(1, 1), (3, 2), (16, 8)])
    def test_arrays_equal_loop_reference(self, n_x, n_y):
        mesh = build_rectangle_mesh(1.7, n_x, n_y)
        for name, ref in loop_rectangle_arrays(1.7, n_x, n_y).items():
            got = getattr(mesh, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name

    def test_first_untagged_edge_is_named(self):
        mesh = build_rectangle_mesh(1.0, 3, 2)
        count = loop_edge_counts(mesh.triangles)
        tagged = [set(mesh.interface_pairs[:, 0].tolist()),
                  set(mesh.interface_pairs[:, 1].tolist()), set(mesh.dirichlet_nodes.tolist())]
        untagged = sorted(k for k, c in count.items()
                          if c == 1 and not any(k[0] in s and k[1] in s for s in tagged))
        with pytest.raises(MeshError, match=rf"untagged boundary edge \({untagged[0][0]}, "
                                            rf"{untagged[0][1]}\)$"):
            InterfaceMesh(mesh.nodes, mesh.triangles, mesh.tri_side, mesh.interface_pairs,
                          mesh.dirichlet_nodes, np.zeros((0, 2)))

    def test_first_interior_neumann_edge_is_named(self):
        mesh = build_rectangle_mesh(1.0, 3, 2)
        count = loop_edge_counts(mesh.triangles)
        interior = sorted(k for k, c in count.items() if c == 2)
        extra = np.array([interior[5][::-1], interior[2]])
        with pytest.raises(MeshError, match=rf"Neumann edge \({interior[2][0]}, "
                                            rf"{interior[2][1]}\) is not a boundary edge"):
            InterfaceMesh(mesh.nodes, mesh.triangles, mesh.tri_side, mesh.interface_pairs,
                          mesh.dirichlet_nodes, np.vstack([mesh.neumann_edges, extra]))


def put(name, index, value):
    def edit(a):
        a[name][index] = value
    return edit


def put_float(name, index, value):
    """``put`` into the array made float first, so a fractional value stays."""
    def edit(a):
        a[name] = a[name].astype(float)
        a[name][index] = value
    return edit


def put_true(name, index):
    """``put`` a ``True`` into the array made a list first, where numpy would
    read it as 1 among the numbers, as a JSON ``true`` in a mesh file is."""
    def edit(a):
        a[name] = a[name].tolist()
        row = a[name]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = True
    return edit


def replaced(name, fn):
    def edit(a):
        a[name] = fn(a[name])
    return edit


def neumann_added(*edges):
    return replaced("neumann_edges", lambda e: np.vstack([e, edges]))


def edits(*fns):
    def edit(a):
        for fn in fns:
            fn(a)
    return edit


# one corruption of the 3x1 rectangle mesh of length 3 per MeshError of the
# array conversion and of _validate_and_build (a wrong shape, a non-number, a
# boolean among the numbers, a fractional and an out-of-range index: one per
# array).  Its nodes: plus
# corners 0-3 at y = 0 and 4-7 at y = 1, centres 8-10; minus corners 11-14 at
# y = -1 and 15-18 at y = 0, centres 19-21; pairs (0, 15) ... (3, 18);
# Neumann (0, 4), (3, 7), (11, 15), (14, 18)
MESH_ERRORS = {
    "nodes_columns": (replaced("nodes", lambda n: np.column_stack([n, n[:, 0]])),
                      r"nodes must be an array of shape \(n, 2\)$"),
    "triangle_columns": (replaced("triangles", lambda t: t[:, :2]),
                         r"triangles must be an array of shape \(n, 3\)$"),
    "side_rows": (replaced("tri_side", lambda s: s[:, None]),
                  r"tri_side must be an array of shape \(n,\)$"),
    "pairs_flat": (replaced("interface_pairs", np.ravel),
                   r"interface_pairs must be an array of shape \(n, 2\)$"),
    "pairs_odd": (replaced("interface_pairs", lambda p: p.tolist() + [[1]]),
                  r"interface_pairs must be an array of shape \(n, 2\)$"),
    "dirichlet_rows": (replaced("dirichlet_nodes", lambda d: d.reshape(2, -1)),
                       r"dirichlet_nodes must be an array of shape \(n,\)$"),
    "neumann_flat": (replaced("neumann_edges", np.ravel),
                     r"neumann_edges must be an array of shape \(n, 2\)$"),
    "node_text": (replaced("nodes", lambda n: n.astype(str)), r"nodes must hold numbers$"),
    "pair_none": (replaced("interface_pairs", lambda p: [[None, 15]] + p[1:].tolist()),
                  r"interface_pairs must hold whole numbers$"),
    "side_bool": (replaced("tri_side", lambda s: s > 0), r"tri_side must hold whole numbers$"),
    "node_true": (put_true("nodes", (8, 0)), r"nodes must hold numbers$"),
    "triangle_true": (put_true("triangles", (0, 1)), r"triangles must hold whole numbers$"),
    "side_true": (put_true("tri_side", (0,)), r"tri_side must hold whole numbers$"),
    "pair_true": (put_true("interface_pairs", (0, 0)),
                  r"interface_pairs must hold whole numbers$"),
    "dirichlet_true": (put_true("dirichlet_nodes", (0,)),
                       r"dirichlet_nodes must hold whole numbers$"),
    "neumann_true": (put_true("neumann_edges", (1, 1)), r"neumann_edges must hold whole numbers$"),
    "node_nan": (put("nodes", (8, 0), np.nan), r"node coordinates must be finite$"),
    "node_overflow": (put("nodes", (8, 0), 1e200),
                      r"node coordinates overflow the mesh diameter or a triangle area$"),
    "node_inf": (put("nodes", (5, 1), np.inf), r"node coordinates must be finite$"),
    "triangle_fraction": (put_float("triangles", (0, 1), 1.5),
                          r"triangles must hold whole numbers$"),
    "side_fraction": (put_float("tri_side", 0, 0.5), r"tri_side must hold whole numbers$"),
    "pair_fraction": (put_float("interface_pairs", (0, 0), 0.9),
                      r"interface_pairs must hold whole numbers$"),
    "pair_nan": (put_float("interface_pairs", (2, 1), np.nan),
                 r"interface_pairs must hold whole numbers$"),
    "pair_beyond_int64": (put_float("interface_pairs", (2, 1), 1e30),
                          r"interface_pairs must hold whole numbers$"),
    "dirichlet_fraction": (put_float("dirichlet_nodes", 0, 4.7),
                           r"dirichlet_nodes must hold whole numbers$"),
    "neumann_fraction": (put_float("neumann_edges", (1, 1), 7.25),
                         r"neumann_edges must hold whole numbers$"),
    "triangle_index": (put("triangles", (0, 0), 22), r"triangle vertex index out of range"),
    "pair_index": (put("interface_pairs", (0, 1), 22), r"interface_pairs index out of range"),
    "dirichlet_index": (put("dirichlet_nodes", 0, -1), r"dirichlet_nodes index out of range"),
    "neumann_index": (put("neumann_edges", (0, 0), -1), r"neumann_edges index out of range"),
    "degenerate": (put("nodes", 8, [0.5, 0.0]), r"degenerate \(zero-area\) triangle 0$"),
    "side_tag": (put("tri_side", 0, 0), r"triangle side tag must be \+1 or -1"),
    "side_length": (replaced("tri_side", lambda s: s[:-1]),
                    r"tri_side length must match triangle count"),
    "no_pairs": (replaced("interface_pairs", lambda p: p[:0]), r"mesh has no interface pairs"),
    "pair_repeat": (put("interface_pairs", (1, 0), 0), r"interface pair lists repeat a node"),
    "both_sides": (put("interface_pairs", (3, 1), 0),
                   r"a node appears on both sides of an interface pair"),
    "not_coincident": (put("nodes", (0, 1), 1e-3),
                       r"interface pair 0 not coincident \(distance 1\.000e-03\)"),
    "pair_dirichlet": (replaced("dirichlet_nodes", lambda d: np.append(d, 0)),
                       r"interface node tagged Dirichlet \(tags must partition the boundary\)"),
    "unreferenced": (replaced("nodes", lambda n: np.vstack([n, [[1.5, 0.5]]])),
                     r"mesh contains nodes not referenced by any triangle"),
    "shared_node": (put("tri_side", 0, -1),
                    r"a node is shared between the two bodies \(must be duplicated\)"),
    "plus_off_body": (put("tri_side", slice(None), -1),
                      r"plus interface node not on the plus body"),
    "minus_off_body": (put("tri_side", slice(None), 1),
                       r"minus interface node not on the minus body"),
    "dirichlet_one_body": (replaced("dirichlet_nodes", lambda d: d[:4]),
                           r"empty Dirichlet set on one body"),
    "neumann_repeat": (neumann_added([4, 0]), r"duplicate Neumann edge"),
    "neumann_interior": (neumann_added([8, 0]), r"Neumann edge \(0, 8\) is not a boundary edge"),
    "untagged": (replaced("neumann_edges", lambda e: e[1:]), r"untagged boundary edge \(0, 4\)$"),
    "two_tags": (neumann_added([5, 4]), r"boundary edge \(4, 5\) carries multiple tags"),
    "no_interface_edge": (
        edits(replaced("interface_pairs", lambda p: p[[0, 3]]),
              neumann_added([0, 1], [1, 2], [2, 3], [15, 16], [16, 17], [17, 18])),
        r"no boundary edges along the interface polyline"),
    # a minus triangle over the minus interface edge (15, 16), which then is
    # no boundary edge; its two other edges are tagged Neumann
    "no_counterpart": (
        edits(replaced("nodes", lambda n: np.vstack([n, [[0.5, 0.5]]])),
              replaced("triangles", lambda t: np.vstack([t, [[15, 16, 22]]])),
              replaced("tri_side", lambda s: np.append(s, -1)),
              neumann_added([15, 22], [16, 22])),
        r"interface edge \(0, 1\) has no minus-side counterpart"),
    "pair_off_polyline": (
        edits(replaced("interface_pairs", lambda p: p[[0, 1, 3]]),
              neumann_added([1, 2], [2, 3], [16, 17], [17, 18])),
        r"interface pair not connected to any interface edge"),
}


class TestMeshErrors:
    FIELDS = ("nodes", "triangles", "tri_side", "interface_pairs", "dirichlet_nodes",
              "neumann_edges")

    def test_the_base_mesh_is_valid(self):
        mesh = build_rectangle_mesh(3.0, 3, 1)
        assert mesh.n_nodes == 22 and mesh.interface_pairs[:, 1].tolist() == [15, 16, 17, 18]
        assert mesh.neumann_edges.tolist() == [[0, 4], [3, 7], [11, 15], [14, 18]]
        InterfaceMesh(*(getattr(mesh, name) for name in self.FIELDS))

    @pytest.mark.parametrize("case", list(MESH_ERRORS))
    def test_each_error_is_raised_with_its_message(self, case):
        mesh = build_rectangle_mesh(3.0, 3, 1)
        arrays = {name: getattr(mesh, name).copy() for name in self.FIELDS}
        corrupt, message = MESH_ERRORS[case]
        corrupt(arrays)
        with pytest.raises(MeshError, match=message):
            InterfaceMesh(**arrays)


    def test_integer_arrays_are_taken_without_a_copy(self):
        mesh = build_rectangle_mesh(3.0, 3, 1)
        again = InterfaceMesh(*(getattr(mesh, name) for name in self.FIELDS))
        for name in ("nodes", "triangles", "tri_side", "interface_pairs", "neumann_edges"):
            assert getattr(again, name) is getattr(mesh, name), name

    def test_whole_floats_are_taken_as_indices(self):
        mesh = build_rectangle_mesh(3.0, 3, 1)
        arrays = {name: getattr(mesh, name).astype(float) for name in self.FIELDS}
        again = InterfaceMesh(**arrays)
        for name in self.FIELDS:
            got, ref = getattr(again, name), getattr(mesh, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert np.array_equal(again.interface_weights, mesh.interface_weights)


class TestMeshFile:
    def test_round_trip(self, tmp_path):
        mesh = build_rectangle_mesh(1.0, 2, 2)
        path = tmp_path / "mesh.json"
        save_mesh(mesh, path)
        loaded = load_mesh(path)
        assert np.array_equal(loaded.nodes, mesh.nodes)
        assert np.array_equal(loaded.triangles, mesh.triangles)
        assert np.array_equal(loaded.interface_pairs, mesh.interface_pairs)
        assert np.array_equal(loaded.dirichlet_nodes, mesh.dirichlet_nodes)
        assert np.allclose(loaded.interface_weights, mesh.interface_weights)

    def test_empty_dirichlet_rejected(self, tmp_path):
        mesh = build_rectangle_mesh(1.0, 1, 1)
        path = tmp_path / "bad.json"
        save_mesh(mesh, path)
        doc = json.loads(path.read_text())
        doc["dirichlet"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="empty Dirichlet set"):
            load_mesh(path)

    def test_non_coincident_pair_rejected(self, tmp_path):
        mesh = build_rectangle_mesh(1.0, 1, 1)
        path = tmp_path / "bad.json"
        save_mesh(mesh, path)
        doc = json.loads(path.read_text())
        p = doc["interface_pairs"][0][0]
        doc["nodes"][p][1] += 1e-3
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="not coincident"):
            load_mesh(path)

    @pytest.mark.parametrize("text, message", [
        (b'{"nodes": [[0.0, 0.0],', r"invalid JSON at line 1: Expecting value$"),
        (b'{"nodes": []}\n}', r"invalid JSON at line 2: Extra data$"),
        (b'\xff\xfe{"nodes": []}', r"invalid JSON at line 1: Expecting value$"),
        (b"[]", r"a mesh file must hold a JSON object$"),
        (b'"mesh"', r"a mesh file must hold a JSON object$"),
    ])
    def test_a_file_that_is_no_json_object_rejected(self, text, message, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(MeshError, match=message):
            load_mesh(path)

    def test_three_column_triangle_rows_rejected(self, tmp_path):
        # they used to be read as rows of 4: [i, j, k, side] of a different triangle
        path = tmp_path / "bad.json"
        save_mesh(build_rectangle_mesh(3.0, 3, 1), path)
        doc = json.loads(path.read_text())
        doc["triangles"] = [row[:3] for row in doc["triangles"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=r"triangles must be an array of shape \(n, 4\)$"):
            load_mesh(path)

    def test_untagged_boundary_edge_rejected(self, tmp_path):
        mesh = build_rectangle_mesh(1.0, 1, 1)
        path = tmp_path / "bad.json"
        save_mesh(mesh, path)
        doc = json.loads(path.read_text())
        doc["neumann_edges"] = doc["neumann_edges"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match="untagged boundary edge"):
            load_mesh(path)


def trace_constant(mesh) -> float:
    return estimate_trace_constant(mesh, unit_stiffness(mesh))


class TestTraceConstant:
    def test_positive(self):
        mesh = build_rectangle_mesh(1.0, 2, 2)
        assert trace_constant(mesh) > 0.0

    def test_matches_dense_generalized_eigensolve(self):
        from scipy.linalg import eigh

        mesh = build_rectangle_mesh(1.0, 8, 8)
        c_hat = trace_constant(mesh)

        # oracle: largest eigenvalue of the pencil (B' W B, A) on free DOFs
        free = mesh.free_nodes
        A = per_triangle(mesh, "stiffness")[np.ix_(free, free)].toarray()
        B = jump_operator(mesh.interface_pairs.T, mesh.n_nodes)[:, free].toarray()
        BtWB = B.T @ np.diag(mesh.interface_weights) @ B
        lam = eigh(BtWB, A, eigvals_only=True)
        assert c_hat == pytest.approx(1.0 / lam[-1], rel=1e-8)

    @pytest.mark.parametrize("n_x, n_y", [(8, 4), (16, 8)])
    def test_equals_the_free_dof_reference(self, n_x, n_y):
        import scipy.sparse.linalg as spla

        # reference: the free-DOF stiffness block and the free columns of B
        mesh = build_rectangle_mesh(1.0, n_x, n_y)
        free = mesh.free_nodes
        B_f = jump_operator(mesh.interface_pairs.T, mesh.n_nodes)[:, free]
        lu = spla.splu(per_triangle(mesh, "stiffness")[np.ix_(free, free)].tocsc(),
                       permc_spec="MMD_AT_PLUS_A")
        S = B_f @ lu.solve(B_f.T.toarray())
        sqrt_w = np.sqrt(mesh.interface_weights)
        lam = np.linalg.eigvalsh(sqrt_w[:, None] * (0.5 * (S + S.T)) * sqrt_w[None, :])
        assert trace_constant(mesh) == pytest.approx(1.0 / float(lam[-1]), rel=1e-13)

    def test_a_scale_that_overflows_the_mesh_is_named(self):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        overflow = "node coordinates overflow the mesh diameter or a triangle area"
        # 1e200: the coordinates are finite, the areas and the squared
        # diameter are not; 1e308: the y extent 2e308 is not; at length 3,
        # 1e308 takes x to inf
        for length, factor, cause in ((1.0, 1e200, overflow), (1.0, 1e308, overflow),
                                      (3.0, 1e308, "node coordinates must be finite")):
            with pytest.raises(MeshError, match=re.escape(f"scale factor {factor!r}: {cause}")):
                scaled(build_rectangle_mesh(length, 4, 4), factor)
        big = scaled(mesh, 1e100)
        assert big.nodes.tobytes() == (mesh.nodes * 1e100).tobytes()

    def test_scaling_inverse_in_domain_size(self):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        base = trace_constant(mesh)
        for factor in (0.5, 2.0):
            val = trace_constant(scaled(mesh, factor))
            assert val == pytest.approx(base / factor, rel=0.05)
