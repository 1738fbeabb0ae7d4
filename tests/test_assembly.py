"""Operator assembly against quadrature oracles, symmetry/kernel invariants
and load vectors."""

import inspect
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cohesim.assembly import (
    InterfaceSchur,
    LoadModel,
    Materials,
    assemble,
    load_vector,
)
from cohesim.config import ConfigError, parse_scenario
from cohesim.evolution import run
from cohesim.expressions import compile_expression
from cohesim.mesh import InterfaceMesh, build_rectangle_mesh
from cohesim.mesh import jumps as mesh_jumps

from oracles import jump_operator, node_scaled, per_triangle
from scenarios import mild_ramp, ramp_bulk


@pytest.fixture(scope="module")
def mesh():
    return build_rectangle_mesh(1.0, 3, 2)


@pytest.fixture(scope="module")
def ops(mesh):
    return assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))


def moved_centres(L, n_x, n_y, seed):
    """The rectangle mesh with each cell centre (the third vertex of each
    triangle) moved by a seeded random offset of up to 0.2 h per axis."""
    mesh = build_rectangle_mesh(L, n_x, n_y)
    centre = np.unique(mesh.triangles[:, 2])
    offset = np.random.default_rng(seed).uniform(-0.2, 0.2, (centre.size, 2))
    nodes = mesh.nodes.copy()
    nodes[centre] += offset * [L / n_x, 1.0 / n_y]
    return InterfaceMesh(nodes, mesh.triangles, mesh.tri_side, mesh.interface_pairs,
                         mesh.dirichlet_nodes, mesh.neumann_edges)


def quadrature_stiffness_oracle(mesh, coef_plus, coef_minus, n_sub=5):
    """Numeric quadrature of the stiffness form: P1 gradients are constant per
    triangle, so averaging the integrand over n_sub^2 sample points per
    triangle reproduces the exact integral."""
    N = mesh.n_nodes
    A = np.zeros((N, N))
    for tri, side in zip(mesh.triangles, mesh.tri_side):
        p = mesh.nodes[tri]
        mat = np.array([p[1] - p[0], p[2] - p[0]]).T
        area = 0.5 * abs(np.linalg.det(mat))
        grads = np.linalg.solve(mat.T, np.array([[-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]))
        coef = coef_plus if side > 0 else coef_minus
        local = np.zeros((3, 3))
        count = 0
        for a in range(n_sub):
            for b in range(n_sub - a):
                count += 1
                local += grads.T @ grads
        local *= coef * area / count
        A[np.ix_(tri, tri)] += local
    return A


class TestOperators:
    def test_exact_symmetry(self, ops):
        for A in node_scaled(ops):
            assert (A - A.T).nnz == 0

    def test_constant_field_in_stiffness_kernel(self, ops):
        ones = np.ones(ops.n_nodes)
        assert np.allclose(node_scaled(ops)[2] @ ones, 0.0, atol=1e-14)

    def test_energy_of_linear_field_is_area(self, ops, mesh):
        # u = x has unit gradient: u' A_mu u = mu * |Omega| = 2 * E(u)
        u = mesh.nodes[:, 0].copy()
        A_mu = node_scaled(ops)[2]
        assert u @ (A_mu @ u) == pytest.approx(2.0, abs=1e-13)  # area of (0,1)x(-1,1)

    def test_total_mass_is_area(self, ops):
        ones = np.ones(ops.n_nodes)
        assert ones @ (node_scaled(ops)[0] @ ones) == pytest.approx(2.0, abs=1e-13)

    def test_stiffness_matches_quadrature_oracle(self):
        mesh = build_rectangle_mesh(0.7, 2, 1)
        A = per_triangle(mesh, "stiffness", np.where(mesh.tri_side > 0, 1.3, 0.4)).toarray()
        oracle = quadrature_stiffness_oracle(mesh, 1.3, 0.4)
        assert np.allclose(A, oracle, atol=1e-12)

    def test_assemble_equals_the_single_operator_builders(self, mesh):
        # assemble builds both forms on one COO index pair, a block of
        # triangles at a time; each equals its own builder bit for bit, also
        # where moved cell centres make the node stars asymmetric, so that
        # another order of summing an entry's terms shows in its bytes
        materials = Materials(1.3, 0.7, 2.0, 3.0, 0.5, 1.5)
        for m in (mesh, moved_centres(1.0, 12, 6, seed=11)):
            ops = assemble(m, materials)
            for op, ref in ((ops.M_unit, per_triangle(m, "mass")),
                            (ops.A_unit, per_triangle(m, "stiffness"))):
                for name in ("indptr", "indices", "data"):
                    assert getattr(op, name).tobytes() == getattr(ref, name).tobytes()

    def test_node_scaled_operators_match_the_per_triangle_builders(self, mesh):
        # the bodies share no node, so diag(c) times a unit form is the form
        # weighted triangle by triangle; H0 too, formed on the shared pattern
        materials = Materials(1.3, 0.7, 2.0, 3.0, 0.5, 1.5)
        ops = assemble(mesh, materials)
        plus = mesh.tri_side > 0
        rho, mu, eta = (np.where(plus, a, b) for a, b in ((1.3, 0.7), (2.0, 3.0), (0.5, 1.5)))
        M, A_mu, A_eta = (per_triangle(mesh, "mass", rho), per_triangle(mesh, "stiffness", mu),
                          per_triangle(mesh, "stiffness", eta))
        M_node, A_eta_node, A_mu_node = node_scaled(ops)
        tau = 0.01
        x = np.random.default_rng(7).normal(size=(ops.n_nodes, 5))
        for op, ref in ((M_node, M), (A_mu_node, A_mu), (A_eta_node, A_eta),
                        (ops.combination(ops.rho / tau**2, ops.eta / tau + ops.mu),
                         M / tau**2 + A_eta / tau + A_mu)):
            y, y_ref = op @ x, ref @ x
            assert np.abs(y - y_ref).max() <= 1e-14 * np.abs(y_ref).max()

    def test_dirichlet_elimination_matches_penalty(self, ops, mesh):
        # solve A_mu u = f with u = 0 on the Dirichlet set, both ways
        rng = np.random.default_rng(4)
        f = rng.normal(size=ops.n_nodes)
        free = ops.free_dofs
        u_elim = np.zeros(ops.n_nodes)
        A_mu = node_scaled(ops)[2]
        A_ff = A_mu[np.ix_(free, free)].toarray()
        u_elim[free] = np.linalg.solve(A_ff, f[free])

        A_pen = A_mu.toarray().copy()
        f_pen = f.copy()
        for d in mesh.dirichlet_nodes:
            A_pen[d, d] += 1e14
            f_pen[d] = 0.0
        u_pen = np.linalg.solve(A_pen, f_pen)
        scale = np.abs(u_elim[free]).max()
        assert np.allclose(u_elim, u_pen, atol=1e-6 * scale)

    def test_products_are_the_scipy_products_bit_for_bit(self):
        # the CSR kernel that ``@`` ends in, called directly: the same bits
        # for float, int and strided vectors, and a wrong shape is refused
        # before the unchecked kernel reads it
        ops = assemble(build_rectangle_mesh(1.0, 5, 3),
                       Materials(1.0, 2.0, 3.0, 0.5, 0.7, 1.3))
        n = ops.n_nodes
        rng = np.random.default_rng(35)
        u = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
        u[:4] = 0.0, -0.0, 1e-300, -5e-324
        ints = rng.integers(-1000, 1000, n)
        strided = rng.normal(size=2 * n)[::2]
        for v in (u, ints, strided, list(u)):
            m, a = ops.products(v)
            ref = np.asarray(v)
            assert m.tobytes() == (ops.M_unit @ ref).tobytes()
            assert a.tobytes() == (ops.A_unit @ ref).tobytes()
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1)), np.zeros((1, n)),
                    np.zeros(())):
            with pytest.raises(ValueError, match="expected"):
                ops.products(bad)

    def test_l2_norm_is_the_scipy_product_bit_for_bit(self, monkeypatch):
        # one call of the CSR kernel, with the shape check of products
        import cohesim.assembly as assembly

        ops = assemble(build_rectangle_mesh(1.0, 5, 3),
                       Materials(1.0, 2.0, 3.0, 0.5, 0.7, 1.3))
        n = ops.n_nodes
        rng = np.random.default_rng(37)
        u = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
        u[:4] = 0.0, -0.0, 1e-300, -5e-324
        ints = rng.integers(-1000, 1000, n)
        strided = rng.normal(size=2 * n)[::2]
        calls, real = [], assembly.csr_matvec
        monkeypatch.setattr(assembly, "csr_matvec",
                            lambda *args: calls.append(1) or real(*args))
        for v in (u, ints, strided, list(u)):
            ref = np.asarray(v)
            want = float(np.sqrt(max(ref @ (ops.M_unit @ ref), 0.0)))
            calls.clear()
            assert np.float64(ops.l2_norm(v)).tobytes() == np.float64(want).tobytes()
            assert len(calls) == 1
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1)), np.zeros((1, n)),
                    np.zeros(()), [0.0] * (n - 1), [[0.0] * n]):
            with pytest.raises(ValueError, match="expected"):
                ops.l2_norm(bad)

    def test_material_positivity_enforced(self):
        for bad in (-2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu_minus"):
                Materials(1.0, 1.0, 1.0, bad, 1.0, 1.0)


class TestInterfaceSchur:
    @pytest.mark.parametrize("n_x, n_y, tau", [(8, 4, 0.01), (16, 8, 0.05), (16, 8, None),
                                               (40, 2, 0.01)])
    def test_dirichlet_elimination_equals_the_free_dof_block(self, n_x, n_y, tau):
        # reference: the free-DOF block and the free columns of B, factorized
        # directly; S and a forward sweep followed by a backward sweep agree
        # with it to rounding
        mesh = build_rectangle_mesh(1.0, n_x, n_y)
        ops = assemble(mesh, Materials(1.0, 2.0, 1.0, 3.0, 0.5, 2.0))
        free, dirichlet = ops.free_dofs, mesh.dirichlet_nodes
        ix = np.ix_(free, free)
        B = jump_operator(ops.pairs, ops.n_nodes)
        B_f = B[:, free]
        M, A_eta, A_mu = node_scaled(ops)
        if tau is None:
            K, K_ff = A_mu, A_mu[ix]
        else:
            K = M / tau**2 + A_eta / tau + A_mu
            K_ff = M[ix] / tau**2 + A_eta[ix] / tau + A_mu[ix]
        lu = spla.splu(K_ff.tocsc(), permc_spec="MMD_AT_PLUS_A")
        S = B_f @ lu.solve(B_f.T.toarray())
        schur = InterfaceSchur(K, ops.pairs, free)
        assert np.array_equal(schur.S, schur.S.T)
        assert np.abs(schur.S - S).max() <= 1e-13 * np.abs(S).max()

        rng = np.random.default_rng(5)
        rhs = rng.normal(size=ops.n_nodes)
        rhs[dirichlet] = 0.0
        lam = rng.normal(size=mesh.n_pairs)
        y, j_lin = schur.forward(rhs)
        u = schur.backward(lam, y)
        ref = lu.solve(B_f.T @ lam - rhs[free])
        assert np.abs(u[free] - ref).max() <= 1e-12 * np.abs(ref).max()
        j_ref = -(B_f @ lu.solve(rhs[free]))
        assert np.abs(j_lin - j_ref).max() <= 1e-12 * np.abs(j_ref).max()
        # exactly +0.0 on the Dirichlet nodes, so no "-0" reaches the output
        assert not np.any(u[dirichlet]) and not np.signbit(u[dirichlet]).any()
        # the eliminated operator, built here: the free-DOF block of K and
        # identity rows and columns on the Dirichlet nodes; the schur keeps
        # only its factor
        K_elim = K.toarray()
        K_elim[dirichlet, :] = K_elim[:, dirichlet] = 0.0
        K_elim[dirichlet, dirichlet] = 1.0
        rhs_u = B.T @ lam - rhs
        assert np.abs(K_elim @ u - rhs_u).max() <= 1e-12 * np.abs(rhs_u).max()
        assert not hasattr(schur, "K")
        shifted = schur.constrained(rhs + 1.0)
        assert not shifted[dirichlet].any()
        assert np.array_equal(shifted[free], rhs[free] + 1.0)


    def test_constrained_zeroes_the_dirichlet_rows_in_place(self):
        mesh = build_rectangle_mesh(1.0, 4, 2)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        schur = InterfaceSchur(ops.A_unit, ops.pairs, ops.free_dofs)
        free, dirichlet = ops.free_dofs, mesh.dirichlet_nodes
        v = np.random.default_rng(3).normal(size=ops.n_nodes)
        # signed zeros and NaNs on both kinds of row
        v[free[:2]] = v[dirichlet[:2]] = -0.0
        v[free[2:4]] = v[dirichlet[2:4]] = np.nan
        before = v.copy()
        out = schur.constrained(v)
        assert out is v
        assert v[dirichlet].tobytes() == np.zeros(dirichlet.size).tobytes()
        assert v[free].tobytes() == before[free].tobytes()


class TestPairIndices:
    def test_pairs_are_the_signed_columns_of_B(self, ops, mesh):
        B = jump_operator(ops.pairs, ops.n_nodes)
        cols, signs = B.indices.reshape(-1, 2), B.data.reshape(-1, 2) > 0.0
        plus, minus = ops.pairs
        assert np.array_equal(cols[signs], plus) and np.array_equal(cols[~signs], minus)
        assert np.array_equal(np.column_stack([plus, minus]), mesh.interface_pairs)
        # views of the mesh's pairs, not copies
        assert all(np.shares_memory(nodes, mesh.interface_pairs) for nodes in ops.pairs)

    def test_jumps_equal_B_products_bit_for_bit(self):
        # signed zeros included: a row of B sums from +0.0, so -0.0 - +0.0
        # gives a +0.0 jump, not -0.0
        ops = assemble(build_rectangle_mesh(1.0, 8, 4), Materials.constant(1.0, 1.0, 1.0))
        rng = np.random.default_rng(5)
        plus, minus = ops.pairs
        B = jump_operator(ops.pairs, ops.n_nodes)
        for _ in range(5):
            u = rng.normal(size=ops.n_nodes)
            u[plus[:4]], u[minus[:4]] = [-0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0]
            u[plus[4]] = u[minus[4]]
            assert ops.jumps(u).tobytes() == (B @ u).tobytes()
            assert not np.signbit(ops.jumps(u)[:5]).any()


    def test_one_gather_is_mesh_jumps_bit_for_bit(self):
        # the (2, n_pairs) index is the pairs stacked, and one read there gives
        # the jumps of mesh.jumps, signed zeros included
        ops = assemble(build_rectangle_mesh(1.0, 8, 4), Materials.constant(1.0, 1.0, 1.0))
        plus, minus = ops.pairs
        assert ops.pair_index.shape == (2, plus.size)
        assert np.array_equal(ops.pair_index, np.stack(ops.pairs))
        rng = np.random.default_rng(37)
        for _ in range(5):
            u = rng.normal(size=ops.n_nodes)
            u[plus[:4]], u[minus[:4]] = [-0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0]
            u[plus[4]] = u[minus[4]]
            assert ops.jumps(u).tobytes() == mesh_jumps(u, ops.pairs).tobytes()


class TestLoads:
    def test_zero_loads_give_zero_vector(self, mesh):
        loads = LoadModel.from_functions(mesh, 1.0)
        assert np.all(load_vector(loads, 0.3) == 0.0)

    def test_unit_bulk_load_sums_to_area(self, mesh):
        loads = LoadModel.from_functions(mesh, 1.0, bulk=lambda x, y, t: 1.0)
        F = load_vector(loads, 0.5)
        assert F.sum() == pytest.approx(2.0, abs=1e-13)

    def test_at_a_sample_time_returns_that_sample_alone(self, mesh):
        # any t is a sample time: the load is evaluated at t itself, once per
        # rule point, bit for bit; here it overflows only at T
        times = []

        def load(x, y, t):
            times.append(t)
            return np.exp(1000.0 * t) * (x + 0.5 * y - 0.25)

        loads = LoadModel.from_functions(mesh, 0.71, bulk=load)
        times.clear()
        F = loads.at(0.3)
        assert times == [0.3] * 3
        assert F.tobytes() == reference_sample(mesh, 0.3, bulk=load).tobytes()
        with pytest.raises(FloatingPointError, match="bulk load is not finite at t = 0.71"):
            loads.at(0.71)

    def test_out_of_range_time_rejected(self, mesh):
        loads = LoadModel.from_functions(mesh, 1.0, bulk=lambda x, y, t: t * x - y)
        for t in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                load_vector(loads, t)
        # within the slack, t is clamped into [0, T]
        assert loads.at(1.0 + 1e-13).tobytes() == loads.at(1.0).tobytes()
        assert loads.at(-1e-13).tobytes() == loads.at(0.0).tobytes()
        assert loads.at(-0.0).tobytes() == loads.at(0.0).tobytes()

    def test_power_pairing_against_quadrature(self, mesh, ops):
        # (F, v) must equal the integral of f * v_h for nodal v
        f = lambda x, y, t: 1.0 + 2.0 * x - y
        loads = LoadModel.from_functions(mesh, 1.0, bulk=f)
        F = load_vector(loads, 0.0)
        rng = np.random.default_rng(9)
        v = rng.normal(size=ops.n_nodes)
        # oracle: exact integral of (affine f) * (P1 v) via 3-point midpoint rule
        total = 0.0
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            mat = np.array([p[1] - p[0], p[2] - p[0]]).T
            area = 0.5 * abs(np.linalg.det(mat))
            for (a, b), w in zip([(0.5, 0.0), (0.5, 0.5), (0.0, 0.5)], [1 / 3] * 3):
                lam = np.array([1 - a - b, a, b])
                x, y = lam @ p
                total += w * area * f(x, y, 0.0) * (lam @ v[tri])
        assert F @ v == pytest.approx(total, rel=1e-12)

    def test_surface_load_on_neumann_edges(self, mesh):
        loads = LoadModel.from_functions(mesh, 1.0, surface=lambda x, y, t: 1.0)
        F = load_vector(loads, 0.0)
        # total = length of the Neumann boundary: four lateral edges of length 1
        assert F.sum() == pytest.approx(4.0, abs=1e-13)
        assert not loads.surface_is_zero


# The per-sample assemblers that LoadModel replaced, kept as the reference:
# one element loop per quadrature point, accumulated with np.add.at.
TRI_QP = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
TRI_QW = np.array([1.0, 1.0, 1.0]) / 3.0
EDGE_QP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_QW = np.array([0.5, 0.5])
# times on no step grid of [0, 2], and its ends
OFF_GRID = (0.0, 0.3, 1.0 / 3.0, 0.7071067811865476, 1.7, 2.0)


def reference_bulk_load(mesh, fn, t):
    p = mesh.nodes[mesh.triangles]
    v1, v2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v2[:, 0] * v1[:, 1])
    F = np.zeros(mesh.n_nodes)
    for (l1, l2), wq in zip(TRI_QP, TRI_QW):
        lam = np.array([1.0 - l1 - l2, l1, l2])
        xq = np.einsum("i,tij->tj", lam, p)
        fv = np.broadcast_to(np.asarray(fn(xq[:, 0], xq[:, 1], t), dtype=float), (area.size,))
        contrib = (wq * area * fv)[:, None] * lam[None, :]
        np.add.at(F, mesh.triangles.ravel(), contrib.ravel())
    return F


def reference_surface_load(mesh, fn, t):
    F = np.zeros(mesh.n_nodes)
    a = mesh.nodes[mesh.neumann_edges[:, 0]]
    b = mesh.nodes[mesh.neumann_edges[:, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    for s, wq in zip(EDGE_QP, EDGE_QW):
        xq = (1.0 - s) * a + s * b
        fv = np.broadcast_to(np.asarray(fn(xq[:, 0], xq[:, 1], t), dtype=float),
                             (lengths.size,))
        common = wq * lengths * fv
        np.add.at(F, mesh.neumann_edges[:, 0], common * (1.0 - s))
        np.add.at(F, mesh.neumann_edges[:, 1], common * s)
    return F


def reference_sample(mesh, t, bulk=None, surface=None):
    F = np.zeros(mesh.n_nodes)
    if bulk is not None:
        F += reference_bulk_load(mesh, bulk, t)
    if surface is not None:
        F += reference_surface_load(mesh, surface, t)
    return F


def counted(fn, calls):
    def wrapped(x, y, t):
        calls.append(t)
        return fn(x, y, t)
    return wrapped


def held_arrays(sample):
    """The arrays that a load's function of ``t`` holds, through lists and tuples."""
    arrays, todo = [], list(inspect.getclosurevars(sample).nonlocals.values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return arrays


class TestLoadOperator:
    BULK = staticmethod(lambda x, y, t: np.exp(x * y) * np.cos(3.0 * t + y) - x ** 2 / (1.0 + t))
    SURFACE = staticmethod(lambda x, y, t: np.sin(7.0 * y - t) * (1.0 + x * x) - 0.3)

    @pytest.mark.parametrize("n_x, n_y", [(3, 2), (16, 8)])
    @pytest.mark.parametrize("which", ["bulk", "surface", "both", "scalar"])
    def test_bit_identical_to_per_sample_assembly(self, n_x, n_y, which):
        mesh = build_rectangle_mesh(1.3, n_x, n_y)
        fns = {"bulk": dict(bulk=self.BULK), "surface": dict(surface=self.SURFACE),
               "both": dict(bulk=self.BULK, surface=self.SURFACE),
               "scalar": dict(bulk=lambda x, y, t: -2.5 * t, surface=lambda x, y, t: t)}[which]
        loads = LoadModel.from_functions(mesh, 2.0, **fns)
        for t in OFF_GRID:
            assert loads.at(t).tobytes() == reference_sample(mesh, t, **fns).tobytes()

    def test_samples_are_evaluated_on_demand(self, mesh):
        # construction forms t = 0; each call then forms t alone, no table
        bulk_calls, surface_calls = [], []
        loads = LoadModel.from_functions(mesh, 1.0, bulk=counted(self.BULK, bulk_calls),
                                         surface=counted(self.SURFACE, surface_calls))
        assert bulk_calls == [0.0] * 3 and surface_calls == [0.0] * 4
        for t in (0.5, 0.50005, 0.25, 1.0, 1e-5):
            bulk_calls.clear()
            surface_calls.clear()
            loads.at(t)
            assert bulk_calls == [t] * 3 and surface_calls == [t] * 4

    def test_time_loop_evaluates_each_sample_once(self):
        # one load per step, at the step's time k * tau, after construction's t = 0
        sc = mild_ramp(n=10)
        calls = []
        loads = LoadModel.from_functions(
            sc.mesh, sc.T, bulk=counted(lambda x, y, t: ramp_bulk(x, y, t, 20.0), calls))
        run(replace(sc, loads=loads))
        assert calls == [k * sc.tau for k in range(sc.n + 1) for _ in range(3)]

    def test_mutating_a_result_leaves_later_results_unchanged(self, mesh):
        loads = LoadModel.from_functions(mesh, 1.0, bulk=self.BULK)
        for t in (0.0, 0.25, 1.0):
            first = loads.at(t)
            expected = first.copy()
            first[:] = np.nan
            assert np.array_equal(loads.at(t), expected)

    SPECIAL = np.array([-0.0, 0.0, -1.5, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, 0.1])

    def test_negative_zero_entries_sample_positive_zero(self):
        loads = LoadModel(1.0, self.SPECIAL.size, {"bulk": lambda t: self.SPECIAL * (1.0 + t)})
        for t in (0.0, 1.0):
            F = loads.at(t)
            zero = F == 0.0
            assert zero.sum() == 2 and not np.signbit(F[zero]).any()

    @pytest.mark.parametrize("n_loads", [1, 2])
    def test_sample_equals_a_sum_from_zeros_bit_for_bit(self, n_loads):
        rng = np.random.default_rng(5)
        vectors = [np.concatenate([self.SPECIAL, -self.SPECIAL,
                                   rng.normal(size=20) * 10.0 ** rng.integers(-30, 30, 20)])
                   for _ in range(n_loads)]
        fns = {name: (lambda V: lambda t: t * V)(V) for name, V in zip(("bulk", "surface"),
                                                                      vectors)}
        loads = LoadModel(1.0, vectors[0].size, fns)
        for t in (0.0, 0.5, 0.7071067811865476, 1.0):
            F = np.zeros(vectors[0].size)
            for fn in fns.values():
                F += fn(t)
            assert loads.at(t).tobytes() == F.tobytes()

    def test_malformed_callable_fails_at_construction(self, mesh):
        with pytest.raises(ValueError):
            LoadModel.from_functions(mesh, 1.0, bulk=lambda x, y, t: np.ones(7))

    def test_concurrent_reads_agree_with_serial(self, mesh):
        import sys
        import threading

        serial = LoadModel.from_functions(mesh, 1.0, bulk=self.BULK)
        query = np.random.default_rng(3).uniform(0.0, 1.0, size=200)
        expected = [serial.at(t) for t in query]
        shared = LoadModel.from_functions(mesh, 1.0, bulk=self.BULK)
        mismatches = []

        def reader(offset):
            for i in range(len(query)):
                j = (i + offset) % len(query)
                if not np.array_equal(shared.at(query[j]), expected[j]):
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(17 * k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []


class TestSeparableLoads:
    """Compiled expressions that are sums of ``g_i(t) * F_i(x, y)`` are
    assembled once per term; a sample ``sum_i g_i(t) V_i`` reorders the
    products of the per-sample assembly, so it agrees with it to a few ulps
    of the sample's largest entry (at most 2.8 ulps seen; 8 allowed)."""

    CASES = [
        ("100 * t * sin(pi * x) * y", None),
        ("0.97 * (25 * min(t / 0.4, max(1 + (t - 0.4) * -3, 0.1 + (t - 0.7) * 0.6))"
         " * sin(pi * x) * y)", None),
        ("exp(-t) * cos(x * y) - (1 + t) ** 2 * x / (2 + y) + 3", None),
        ("100 * t * sin(pi * x) * y", "min(t, 0.5) * (1 + x * x) - 0.3 * t"),
        ("2.5", "-t / (1 + t)"),
        (-1.5, "x * t"),
    ]

    @staticmethod
    def compiled(bulk, surface):
        return {k: compile_expression(v) for k, v in (("bulk", bulk), ("surface", surface))
                if v is not None}

    @pytest.mark.parametrize("bulk, surface", CASES)
    def test_agrees_with_per_sample_assembly(self, bulk, surface):
        mesh = build_rectangle_mesh(1.3, 16, 8)
        fns = self.compiled(bulk, surface)
        assert all(fn.terms is not None for fn in fns.values())
        loads = LoadModel.from_functions(mesh, 2.0, **fns)
        bound = 8.0 * np.finfo(float).eps
        for t in OFF_GRID:
            ref = reference_sample(mesh, t, **fns)
            assert np.abs(loads.at(t) - ref).max() <= bound * np.abs(ref).max()

    def test_term_counts(self):
        counts = [[len(fn.terms) for fn in self.compiled(*case).values()] for case in self.CASES]
        assert counts == [[1], [1], [3], [1, 2], [1, 1], [1, 1]]

    @pytest.mark.parametrize("source", ["sin(x * t)", "(x + t) ** 2", "x / (2 + x + t)",
                                        "max(t, x) * y"])
    def test_non_separable_expression_assembles_per_sample(self, source):
        mesh = build_rectangle_mesh(1.3, 3, 2)
        fn = compile_expression(source)
        assert fn.terms is None
        for which in ("bulk", "surface"):
            loads = LoadModel.from_functions(mesh, 2.0, **{which: fn})
            for t in OFF_GRID:
                assert loads.at(t).tobytes() == reference_sample(mesh, t, **{which: fn}).tobytes()

    def test_separable_rules_are_released(self, mesh):
        # a separable load holds its term vectors alone, no rule point
        loads = LoadModel.from_functions(mesh, 1.0,
                                         bulk=compile_expression("t * sin(pi * x) * y + t * t"),
                                         surface=compile_expression("2 * t - x"))
        for sample in loads.loads.values():
            arrays = held_arrays(sample)
            assert len(arrays) == 2 and all(a.shape == (mesh.n_nodes,) for a in arrays)

    def test_a_non_separable_load_keeps_the_mesh_indices(self, mesh):
        fn = compile_expression("sin(x * t)")
        loads = LoadModel.from_functions(mesh, 1.0, bulk=fn, surface=fn)
        bulk, surface = ([a for a in held_arrays(loads.loads[name]) if a.dtype.kind in "iu"]
                         for name in ("bulk", "surface"))
        # no int64 copy: the triangles themselves, 3 rule points
        assert len(bulk) == 3 and all(nodes is mesh.triangles for nodes in bulk)
        # one column of the Neumann edges per Gauss point and edge end
        assert len(surface) == 4
        for nodes in surface:
            assert nodes.shape == (len(mesh.neumann_edges),)
            assert np.shares_memory(nodes, mesh.neumann_edges)

    def test_rules_are_built_for_given_loads_only(self, mesh, monkeypatch):
        import cohesim.assembly as assembly

        built = []

        def recorded(name):
            rule = getattr(assembly, name)

            def points(mesh):
                built.append(name)
                return rule(mesh)
            return points

        for name in ("_bulk_points", "_surface_points"):
            monkeypatch.setattr(assembly, name, recorded(name))
        assert LoadModel.from_functions(mesh, 1.0).loads == {}
        assert built == []
        LoadModel.from_functions(mesh, 1.0, bulk=compile_expression("t * x"))
        assert built == ["_bulk_points"]
        built.clear()
        doc = {"mesh": {"kind": "rectangle", "L": 1.0, "n_x": 3, "n_y": 2},
               "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
               "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 1.0},
               "loads": {"bulk": 0}, "time": {"T": 1.0, "n": 4}, "initial": {},
               "regularization": {"eps_bar": 0.001}}
        loads = parse_scenario(doc).scenario.loads
        assert built == [] and loads.loads == {}
        F = loads.at(0.3)
        assert np.all(F == 0.0) and not np.signbit(F).any()
        # a zero load is dropped only once it compiles
        doc["loads"] = {"bulk": False}
        with pytest.raises(ConfigError, match="'loads.bulk'"):
            parse_scenario(doc)

    TERMS = ["100 * t * sin(pi * x) * y",
             "exp(-t) * cos(x * y) - (1 + t) ** 2 * x / (2 + y) + 3", "-1.5 * t"]

    @pytest.mark.parametrize("source", TERMS)
    def test_bulk_terms_equal_the_rule_bit_for_bit(self, source):
        self.check_terms("bulk", source)

    @pytest.mark.parametrize("source", TERMS)
    def test_surface_terms_equal_the_rule_bit_for_bit(self, source):
        self.check_terms("surface", source)

    @staticmethod
    def check_terms(which, source):
        # each V_i sums the rule's entries, assembled by the reference, in
        # the rule's order
        mesh = build_rectangle_mesh(1.3, 16, 8)
        fn = compile_expression(source)
        Vs = [reference_sample(mesh, 0.0, **{which: lambda x, y, t, F=F: F(x=x, y=y)})
              for _, F in fn.terms]
        loads = LoadModel.from_functions(mesh, 2.0, **{which: fn})
        for t in OFF_GRID:
            F = float(fn.terms[0][0](t=t)) * Vs[0]
            for (g, _), V in zip(fn.terms[1:], Vs[1:]):
                F += float(g(t=t)) * V
            assert loads.at(t).tobytes() == (F + 0.0).tobytes()

    def test_construction_evaluates_every_term(self, mesh):
        # the time factor 1 / t and the field 1 / (x - x) divide by zero
        for source in ("x / t", "t / (x - x)"):
            with np.errstate(divide="raise"):
                with pytest.raises(FloatingPointError):
                    LoadModel.from_functions(mesh, 1.0, bulk=compile_expression(source))
