"""Step-solver tests: 2-DOF oracle equivalence, KKT exactness, energy
monotonicity, convexity guard."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import jump_operator, node_scaled
from scenarios import unloading_tent

from cohesim.assembly import DiscreteOperators, LoadModel, Materials, assemble
from cohesim.law import CohesiveLaw, FrozenHistory, PrototypeEnvelope, TabulatedEnvelope
from cohesim.mesh import build_rectangle_mesh, estimate_trace_constant, scaled
import cohesim.evolution as evolution
from cohesim.evolution import run
from cohesim.step import (
    StepProblem,
    StepSolverError,
    StepWorkspace,
    convexity_guard,
    incremental_energy,
    solve_step,
    solve_static,
)

M_DIAG = (0.8, 1.2)
ETA_DIAG = (0.5, 0.7)
MU_DIAG = (2.0, 1.5)
PAIR_WEIGHT = 0.6


def toy_ops(weight=PAIR_WEIGHT):
    """Two free DOFs joined by a single interface pair; the operators are the
    diagonals above, as unit forms (identities) scaled by node."""
    eye = sp.identity(2, format="csr")
    return DiscreteOperators(mesh=None, M_unit=eye, A_unit=eye,
                             pairs=(np.array([0]), np.array([1])),
                             weights=np.array([weight]), free_dofs=np.arange(2),
                             rho=np.array(M_DIAG), mu=np.array(MU_DIAG),
                             eta=np.array(ETA_DIAG))


def step_problem(ops, law, tau, xi_prev, f, u_prev=None, u_prev2=None, workspace=None):
    """The step as the time loop builds it, from rest unless ``u_prev`` and
    ``u_prev2`` are given, with Newton starting from zero multipliers."""
    zero = np.zeros(ops.n_nodes)
    u_prev = zero if u_prev is None else np.asarray(u_prev, float)
    u_prev2 = zero if u_prev2 is None else np.asarray(u_prev2, float)
    return StepProblem(tau=tau, u_prev=u_prev, u_prev2=u_prev2, f_k=np.asarray(f, float),
                       ops=ops, law=law, workspace=workspace or StepWorkspace(ops, tau),
                       history=law.frozen(xi_prev),
                       products=(ops.products(u_prev), ops.products(u_prev2)),
                       lam0=np.zeros(ops.weights.size))


def toy_problem(tau, f, xi_prev, u_prev=(0.0, 0.0), u_prev2=(0.0, 0.0), law=None):
    law = law or CohesiveLaw(PrototypeEnvelope(1.0, 1.0))
    return step_problem(toy_ops(), law, tau, np.array([xi_prev]), f, u_prev, u_prev2)


# --- independent scalar oracle of the incremental functional ---------------

def psi_scalar(w, xi, gc=1.0, xc=1.0):
    def val(s):
        s = min(s, xc)
        return gc * (s / xc) * (2.0 - s / xc)

    def slope(s):
        return 2.0 * (gc / xc) * (1.0 - s / xc) if s <= xc else 0.0

    aw = abs(w)
    if aw >= xi:
        return val(aw)
    return val(xi) - slope(xi) * (xi * xi - w * w) / (2.0 * xi)


def toy_energy_scalar(x, y, prob):
    tau = prob.tau
    u1, u2 = prob.u_prev, prob.u_prev2
    m1, m2 = M_DIAG
    e1, e2 = ETA_DIAG
    a1, a2 = MU_DIAG
    px, py = 2.0 * u1[0] - u2[0], 2.0 * u1[1] - u2[1]
    out = 0.5 / tau**2 * (m1 * (x - px) ** 2 + m2 * (y - py) ** 2)
    out += 0.5 / tau * (e1 * (x - u1[0]) ** 2 + e2 * (y - u1[1]) ** 2)
    out += 0.5 * (a1 * x * x + a2 * y * y) - prob.f_k[0] * x - prob.f_k[1] * y
    out += PAIR_WEIGHT * psi_scalar(x - y, prob.xi_prev[0])
    return out


def golden_scalar(f, a, b, tol=1e-13):
    invphi = (5.0**0.5 - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def iterate(prob, k):
    """Newton iterate ``k`` of ``solve_step(prob)`` and whether the loop
    converged there: a step stopped after ``k`` iterations raises with the
    iterate's displacement."""
    try:
        return solve_step(prob, max_iter=k).u_new, True
    except StepSolverError as exc:
        return exc.u_last, False


def oracle_minimize(prob, span=6.0, sweeps=200):
    """Coordinate descent with golden-section line minimizations."""
    x = y = 0.0
    for _ in range(sweeps):
        x_new = golden_scalar(lambda s: toy_energy_scalar(s, y, prob), -span, span)
        y_new = golden_scalar(lambda s: toy_energy_scalar(x_new, s, prob), -span, span)
        if abs(x_new - x) + abs(y_new - y) < 1e-12:
            x, y = x_new, y_new
            break
        x, y = x_new, y_new
    return np.array([x, y])


class TestIncrementalEnergy:
    def test_rest_value_is_dissipated_offset(self):
        prob = toy_problem(0.1, f=(0.0, 0.0), xi_prev=0.5)
        # [u] = 0: only w * psi_d(xi) remains;  psi_d(0.5) = 0.5 for g_c = xi_c = 1
        assert incremental_energy(np.zeros(2), prob) == pytest.approx(
            PAIR_WEIGHT * 0.5, abs=1e-15)

    def test_zero_everything(self):
        prob = toy_problem(0.1, f=(0.0, 0.0), xi_prev=1e-9)
        val = incremental_energy(np.zeros(2), prob)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_matches_scalar_arithmetic(self):
        prob = toy_problem(0.2, f=(0.7, -0.3), xi_prev=0.4,
                           u_prev=(0.05, -0.02), u_prev2=(0.01, 0.0))
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 2)
            assert incremental_energy(np.array([x, y]), prob) == pytest.approx(
                toy_energy_scalar(x, y, prob), abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        prob = toy_problem(0.1, f=(0.0, 0.0), xi_prev=0.5)
        with pytest.raises(ValueError, match="size"):
            incremental_energy(np.zeros(3), prob)


class TestValuesFormedOnce:
    """A step forms its elastic energy once and hands it on; each handed-on
    value is the standalone formula's, bit for bit."""

    @staticmethod
    def tent_steps(monkeypatch, n=20):
        """The record of a short unloading tent and each step's problem and
        result."""
        steps, real = [], evolution.solve_step

        def solve_step(prob, tol=1e-10):
            steps.append((prob, real(prob, tol=tol)))
            return steps[-1][1]

        monkeypatch.setattr(evolution, "solve_step", solve_step)
        return run(unloading_tent(n=n, n_x=8, n_y=4)), steps

    @staticmethod
    def elastic(ops, u):
        return 0.5 * (u @ (ops.mu * (ops.A_unit @ u)))

    def test_step_result_carries_the_elastic_energy_the_record_reads(self, monkeypatch):
        rec, steps = self.tent_steps(monkeypatch)
        assert len(steps) == rec.n_steps == 20
        ops = rec.ops
        assert rec.E[0].tobytes() == self.elastic(ops, rec.us[0]).tobytes()
        for k, (prob, res) in enumerate(steps, start=1):
            u = res.u_new
            assert res.elastic.tobytes() == self.elastic(ops, u).tobytes()
            assert rec.E[k].tobytes() == res.elastic.tobytes()
            # the step's energy is a standalone evaluation's, which forms
            # every term itself
            assert np.float64(res.energy).tobytes() == \
                np.float64(incremental_energy(u, prob)).tobytes()
            assert res.residual.shape == (2, ops.weights.size)

    def test_incremental_energy_with_and_without_the_elastic_term(self):
        prob = TestSolveStep.softening_step()
        ops = prob.ops
        rng = np.random.default_rng(37)
        for _ in range(5):
            u = rng.normal(size=ops.n_nodes) * 1e-2
            u[:2] = 0.0, -0.0
            with_term = incremental_energy(u, prob, elastic=self.elastic(ops, u))
            assert np.float64(with_term).tobytes() == \
                np.float64(incremental_energy(u, prob)).tobytes()

    def test_static_energy_reads_the_elastic_term(self):
        mesh = build_rectangle_mesh(1.0, 8, 4)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
        f = LoadModel.from_functions(
            mesh, 1.0, bulk=lambda x, y, t: 40.0 * np.sin(np.pi * x) * y).at(1.0)
        res = solve_static(ops, law, np.full(mesh.n_pairs, 1e-3), f)
        u = res.u_new
        assert res.elastic.tobytes() == self.elastic(ops, u).tobytes()
        psi = law.psi(ops.jumps(u), res.xi_new)
        expected = self.elastic(ops, u) - f @ u + float(ops.weights @ psi)
        assert np.float64(res.energy).tobytes() == np.float64(expected).tobytes()


class TestSolveStep:
    def test_rest_state_is_fixed_point(self):
        prob = toy_problem(0.1, f=(0.0, 0.0), xi_prev=0.3)
        res = solve_step(prob, tol=1e-12)
        assert np.allclose(res.u_new, 0.0, atol=1e-14)
        assert np.array_equal(res.xi_new, prob.xi_prev)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            prob = toy_problem(
                tau=rng.uniform(0.05, 0.5),
                f=rng.uniform(-3.0, 3.0, 2),
                xi_prev=rng.uniform(0.05, 1.5),
                u_prev=rng.uniform(-0.2, 0.2, 2),
                u_prev2=rng.uniform(-0.2, 0.2, 2),
            )
            res = solve_step(prob, tol=1e-12)
            ref = oracle_minimize(prob)
            assert np.all(np.abs(res.u_new - ref) <= 1e-8)

    def test_history_grows_only_where_jump_exceeds(self):
        prob = toy_problem(0.1, f=(8.0, -8.0), xi_prev=0.05)
        res = solve_step(prob)
        jump = float(res.u_new[0] - res.u_new[1])
        assert abs(jump) > 0.05
        assert res.xi_new[0] == abs(jump)

    def test_kkt_conditions_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            prob = toy_problem(
                tau=rng.uniform(0.05, 0.3),
                f=rng.uniform(-6.0, 6.0, 2),
                xi_prev=rng.uniform(0.02, 1.0),
            )
            res = solve_step(prob)
            jump = res.u_new[0] - res.u_new[1]
            assert abs(jump) <= res.xi_new[0]
            assert (res.xi_new[0] - prob.xi_prev[0]) * (abs(jump) - res.xi_new[0]) == 0.0
            jump_prev = prob.u_prev[0] - prob.u_prev[1]
            assert (abs(res.xi_new[0] - prob.xi_prev[0])
                    <= abs(jump - jump_prev) + 1e-15)

    def test_energy_decreases_along_iterations(self):
        prob = toy_problem(0.1, f=(5.0, -4.0), xi_prev=0.1)
        trail, converged = [], False
        while not converged:
            u, converged = iterate(prob, len(trail))
            trail.append(incremental_energy(u, prob))
        assert len(trail) >= 2
        # monotone descent; strict until the energy rounding floor is reached
        floor = 1e-13 * max(1.0, abs(trail[-1]))
        assert all(b <= a + floor for a, b in zip(trail, trail[1:]))
        assert trail[-1] < trail[0]
        strict = [b < a for a, b in zip(trail, trail[1:])]
        assert strict[0] and all(strict[: strict.index(False)] if False in strict else strict)

    def test_first_order_stationarity_random_directions(self):
        prob = toy_problem(0.15, f=(2.0, -1.0), xi_prev=0.2)
        res = solve_step(prob, tol=1e-12)
        J0 = incremental_energy(res.u_new, prob)
        rng = np.random.default_rng(5)
        h = 1e-7
        for _ in range(20):
            phi = rng.normal(size=2)
            J1 = incremental_energy(res.u_new + h * phi, prob)
            assert (J1 - J0) / h >= -1e-6 * np.linalg.norm(phi)

    def test_aposteriori_residual_small(self):
        prob = toy_problem(0.1, f=(6.0, -6.0), xi_prev=0.05)
        res = solve_step(prob, tol=1e-10)
        assert res.el_residual <= 10.0 * 1e-10 * (1.0 + np.abs(prob.f_k).max())

    def test_nonpositive_history_rejected(self):
        prob = toy_problem(0.1, f=(0.0, 0.0), xi_prev=0.3)
        # law.frozen refuses xi = 0 itself
        prob.history = FrozenHistory(prob.law.env, np.array([0.0]))
        with pytest.raises(ValueError, match="positive"):
            solve_step(prob)

    def test_mismatched_workspace_or_history_rejected(self):
        prob = toy_problem(0.1, f=(1.0, -2.0), xi_prev=0.3)
        other_tau = dataclasses.replace(prob, workspace=StepWorkspace(prob.ops, 0.2))
        with pytest.raises(ValueError, match="different time step"):
            solve_step(other_tau)
        # a history frozen with another envelope, even an equal one
        other_env = dataclasses.replace(
            prob, history=CohesiveLaw(PrototypeEnvelope(1.0, 1.0)).frozen(prob.xi_prev))
        with pytest.raises(ValueError, match="different envelope"):
            solve_step(other_env)

    def test_workspace_reuse_matches_fresh_solve(self):
        prob_a = toy_problem(0.1, f=(1.0, -2.0), xi_prev=0.3)
        ws = StepWorkspace(prob_a.ops, prob_a.tau)
        solve_step(dataclasses.replace(toy_problem(0.1, f=(-3.0, 0.5), xi_prev=0.1),
                                       workspace=ws))
        prob_b = dataclasses.replace(toy_problem(0.1, f=(1.0, -2.0), xi_prev=0.3),
                                     workspace=ws)
        res_a = solve_step(prob_a, tol=1e-12)
        res_b = solve_step(prob_b, tol=1e-12)
        assert np.allclose(res_a.u_new, res_b.u_new, atol=1e-14)

    def test_newton_direction_matches_sparse_solve(self):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        ops = assemble(mesh, Materials(1.0, 2.0, 1.0, 3.0, 0.5, 2.0))
        ws = StepWorkspace(ops, 0.05)
        rng = np.random.default_rng(11)
        r = rng.normal(size=mesh.n_pairs)
        # zero curvature (fully debonded) next to elastic/softening pairs
        d_curv = np.where(np.arange(mesh.n_pairs) % 2 == 0, 0.0,
                          rng.uniform(0.1, 100.0, mesh.n_pairs))
        # push-through: (H0 + B'DB)^-1 B' = H0^-1 B' (I + DS)^-1, with H0
        # the workspace's (Dirichlet rows and columns replaced by identity)
        M, A_eta, A_mu = node_scaled(ops)
        H0 = (M / 0.05**2 + A_eta / 0.05 + A_mu).toarray()
        dirichlet = mesh.dirichlet_nodes
        H0[dirichlet, :] = H0[:, dirichlet] = 0.0
        H0[dirichlet, dirichlet] = 1.0
        B = jump_operator(ops.pairs, ops.n_nodes)
        H = sp.csr_matrix(H0) + B.T @ sp.diags(d_curv) @ B
        ref = spla.spsolve(H.tocsc(), -(B.T @ r))
        d = ws.schur.backward(ws.newton_direction(r, d_curv), np.zeros(ops.n_nodes))
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_displacement_is_exactly_zero_on_dirichlet_nodes(self):
        mesh = build_rectangle_mesh(1.0, 8, 4)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
        # a load that is nonzero on the Dirichlet rows too
        f = 10.0 * np.random.default_rng(3).normal(size=ops.n_nodes)
        res = solve_step(step_problem(ops, law, 1.0 / 40, np.full(mesh.n_pairs, 0.05), f))
        assert np.all(res.u_new[mesh.dirichlet_nodes] == 0.0)
        assert not np.signbit(res.u_new[mesh.dirichlet_nodes]).any()     # +0.0, never -0.0

    def test_full_space_stationarity_through_unloading_and_reloading(self):
        mesh = build_rectangle_mesh(1.0, 8, 4)
        ops = assemble(mesh, Materials(0.1, 0.2, 2.0, 3.0, 4.0, 2.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=2.0))  # concave: loading softens
        n, tol, floor = 60, 1e-10, 1e-3
        tau = 1.0 / n
        loads = LoadModel.from_functions(
            mesh, 1.0,
            bulk=lambda x, y, t: 25.0 * np.interp(t, [0.0, 0.3, 0.5, 1.0],
                                                  [0.0, 1.0, 0.2, 1.6])
            * np.sin(np.pi * x) * y)
        ws = StepWorkspace(ops, tau)
        free = ops.free_dofs
        M, A_eta, A_mu = node_scaled(ops)
        B = jump_operator(ops.pairs, ops.n_nodes)
        u1 = u2 = np.zeros(ops.n_nodes)
        xi = np.full(mesh.n_pairs, floor)
        phases = []
        for k in range(1, n + 1):
            f = loads.at(k * tau)
            prob = step_problem(ops, law, tau, xi, f, u1, u2, ws)
            res = solve_step(prob, tol=tol)
            u = res.u_new
            # Euler-Lagrange gradient of the full-space functional, old history
            g = (M @ (u - 2.0 * u1 + u2) / tau**2 + A_eta @ (u - u1) / tau
                 + A_mu @ u - f
                 + B.T @ (ops.weights * law.dpsi_dw(B @ u, xi)))
            assert np.abs(g[free]).max() <= tol * (1.0 + np.abs(f).max())
            assert res.energy == incremental_energy(u, prob)
            phases.append("load" if np.any(res.xi_new > xi)
                          else "unload" if np.any(res.xi_new > floor) else "rest")
            u2, u1, xi = u1, u, res.xi_new
        assert [p for p, _ in itertools.groupby(phases)] == ["rest", "load", "unload", "load"]

    @staticmethod
    def softening_step():
        """A softening step with backtracking on an 8x4 mesh."""
        mesh = build_rectangle_mesh(1.0, 8, 4)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
        tau = 1.0 / 40
        loads = LoadModel.from_functions(
            mesh, 1.0, bulk=lambda x, y, t: 400.0 * t * np.sin(np.pi * x) * y)
        return step_problem(ops, law, tau, np.full(mesh.n_pairs, 1e-3), loads.at(0.25))

    def test_one_law_pass_per_trial_point(self, monkeypatch):
        # one law pass (branches(), which evaluate() makes too) per trial
        # point, the only ones; it makes an envelope pass only at a point with
        # a pair on or beyond its cone, and a direction reads the envelope's
        # curvature only from a point with a pair off the elastic branch, and
        # tests the elastic mask only at a point the law pass did not find
        # strictly inside.  One more envelope pass for the history terms at
        # xi_new when a pair grew (those at xi_prev come with the problem),
        # none when the step keeps its history.  The post-step pass on the
        # updated cone makes none
        calls = dict.fromkeys(("trial", "off_cone", "value_slope", "loading", "curvature",
                               "direction", "inside"), 0)
        real_branches, real_curvature = FrozenHistory.branches, FrozenHistory.curvature

        def branches(self, w):
            calls["trial"] += 1
            out = real_branches(self, w)
            assert out[4] == (np.abs(w) < self.xi).all()
            calls["off_cone"] += not out[4]
            return out

        def curvature(self, aw, elastic, inside=False):
            calls["direction"] += 1
            calls["inside"] += inside
            calls["loading"] += not elastic.all()
            return real_curvature(self, aw, elastic, inside)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(FrozenHistory, "branches", branches)
        monkeypatch.setattr(FrozenHistory, "curvature", curvature)
        # the softening step backtracks and ends on the elastic branch; the
        # toy step opens its pair far past the history
        for prob, grown in ((self.softening_step(), False),
                            (toy_problem(0.1, (30.0, -30.0), 0.01), True)):
            env = prob.law.env
            for name in ("value_slope", "curvature"):
                monkeypatch.setattr(env, name, counted(name, getattr(env, name)))
            calls.update(dict.fromkeys(calls, 0))
            res = solve_step(prob)
            assert calls["trial"] > res.newton_iters >= (5 if not grown else 1)
            assert (res.xi_new.tobytes() != prob.xi_prev.tobytes()) == grown
            assert calls["value_slope"] == calls["off_cone"] + grown
            assert calls["curvature"] == calls["loading"] > 0
            # the softening step's last points are strictly inside their cones
            assert (calls["off_cone"] < calls["trial"]) == (not grown)
            assert (calls["inside"] > 0) == (not grown)
            assert calls["inside"] + calls["loading"] <= calls["direction"]

    def test_a_step_that_grows_no_pair_hands_its_history_on(self):
        prob = self.softening_step()
        res = solve_step(prob)
        assert res.xi_new.tobytes() == prob.xi_prev.tobytes()
        assert res.history is prob.history
        # the kept history reads as a fresh freeze at xi_new, bit for bit
        fresh = prob.law.frozen(res.xi_new)
        assert res.history.psi_at_zero().tobytes() == fresh.psi_at_zero().tobytes()
        for kept, new in zip(res.history.evaluate_on_cone(res.jumps),
                             fresh.evaluate_on_cone(res.jumps)):
            assert kept.tobytes() == new.tobytes()
        # psi(0, xi) is formed once per history
        assert res.history.psi_at_zero() is res.history.psi_at_zero()

    def test_one_grown_pair_gives_a_new_history(self):
        # 4.8 times the softening step's load opens the middle pair alone past
        # the activation threshold
        prob = self.softening_step()
        prob = step_problem(prob.ops, prob.law, prob.tau, prob.xi_prev, 4.8 * prob.f_k)
        res = solve_step(prob)
        assert np.flatnonzero(res.xi_new != prob.xi_prev).tolist() == [4]
        assert res.history is not prob.history
        assert res.history.xi.tobytes() == res.xi_new.tobytes()
        assert (res.history.psi_at_zero().tobytes()
                == prob.law.psi(0.0, res.xi_new).tobytes())

    def test_polish_runs_only_above_the_rounding_floor(self, monkeypatch):
        # on the cubic-Hermite softening of a tabulated law Newton converges
        # quadratically: the loop stops at a residual near 4e-12, above the
        # rounding floor, and one polish direction takes it to rounding level;
        # on the parabolic prototype the loop ends at the floor, with no polish
        residuals = []
        real = StepWorkspace.newton_direction

        def counted(self, r, d_curv):
            residuals.append(np.abs(r).max())
            return real(self, r, d_curv)

        monkeypatch.setattr(StepWorkspace, "newton_direction", counted)
        w = np.linspace(0.0, 1.0, 5)
        tabulated = CohesiveLaw(TabulatedEnvelope(w, 1.0 - (1.0 - w)**3, 3.0 * (1.0 - w)**2))
        for law, polished in ((tabulated, True), (None, False)):
            prob = toy_problem(0.1, (30.0, -30.0), 0.01, law=law)
            # the loop's iterations: the first max_iter at which it converges
            loop = next(k for k in itertools.count() if iterate(prob, k)[1])
            residuals.clear()
            res = solve_step(prob)
            assert loop >= 1 and len(residuals) == res.newton_iters == loop + polished
            if polished:
                assert residuals[-1] > 1e-13 and res.grad_norm < 1e-15


class TestCertifiedNewton:
    def test_directions_per_step_on_the_unloading_tent(self, monkeypatch):
        # under the run's certified margin the Newton curvature is the law's
        # own and the rate quadratic: a step of the 8x4 unloading tent that
        # converges in one iteration ends at the rounding floor and makes one
        # direction, with no polish
        calls = []
        real = StepWorkspace.newton_direction

        def counted(self, r, d_curv):
            calls.append(d_curv)
            return real(self, r, d_curv)

        ends = []       # the directions made by each step's return
        real_solve = evolution.solve_step

        def solve_step(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            ends.append(len(calls))
            return out

        monkeypatch.setattr(StepWorkspace, "newton_direction", counted)
        monkeypatch.setattr(evolution, "solve_step", solve_step)
        rec = run(unloading_tent(n_x=8, n_y=4))
        per_step = np.diff([0] + ends)
        iters = rec.newton_iters[1:]
        assert (iters == 1).sum() >= 0.9 * rec.n_steps
        assert np.array_equal(per_step[iters == 1], np.ones((iters == 1).sum()))
        assert per_step.max() <= 3 and np.array_equal(per_step, iters)
        # the softening curvature was used as it is, negative
        assert min(d.min() for d in calls) < 0.0

    @pytest.mark.parametrize("n_x", [8, 64, 256])
    def test_direction_agrees_with_numpy_solve(self, n_x):
        # the direction is scipy's LAPACK dgesv, and numpy's solve may link
        # another LAPACK build, so the two may differ in the last bits (seen
        # from 33 pairs on); on certified systems (margin 0.07 here, condition
        # numbers up to 10) they agree to 1e-14 of the direction's largest entry
        mesh = build_rectangle_mesh(1.0, n_x, 2)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.2))
        ws = StepWorkspace(ops, 0.05)
        assert mesh.n_pairs == n_x + 1 and ws.margin(law.beta) > 0.0
        rng = np.random.default_rng(n_x)
        for _ in range(10):
            # softening curvatures down to -beta, elastic secants above
            d_curv = ws.weights * rng.uniform(-law.beta, 10.0 * law.beta, mesh.n_pairs)
            r = rng.normal(size=mesh.n_pairs)
            A = d_curv[:, None] * ws.schur.S
            A.flat[::mesh.n_pairs + 1] += 1.0
            ref = np.linalg.solve(A, -r)
            delta = ws.newton_direction(r, d_curv)
            assert np.abs(delta - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_singular_direction_system_raises(self):
        ws = StepWorkspace(toy_ops(), 0.5)
        s = ws.schur.S[0, 0]
        d_curv = np.array([-1.0 / s])
        assert 1.0 + s * d_curv[0] == 0.0    # I + D S is exactly 0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            ws.newton_direction(np.array([1.0]), d_curv)

    def test_uncertified_solve_clips_the_softening_curvature(self, monkeypatch):
        # beta * lambda_max >= 1: I + D S may be singular with D < 0
        mesh = build_rectangle_mesh(1.0, 4, 2)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        law = CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=0.5))
        ws = StepWorkspace(ops, None)
        assert ws.margin(law.beta) <= 0.0
        raw, used = [], []
        real_curvature = FrozenHistory.curvature
        real_direction = StepWorkspace.newton_direction

        def curvature(self, aw, elastic, inside=False):
            raw.append(real_curvature(self, aw, elastic, inside))
            return raw[-1]

        def direction(self, r, d_curv):
            used.append(d_curv)
            return real_direction(self, r, d_curv)

        monkeypatch.setattr(FrozenHistory, "curvature", curvature)
        monkeypatch.setattr(StepWorkspace, "newton_direction", direction)
        f = np.zeros(ops.n_nodes)
        f[ops.free_dofs] = 0.03 * np.sign(mesh.nodes[ops.free_dofs, 1])
        solve_static(ops, law, np.full(mesh.n_pairs, 1e-3), f)
        assert min(c.min() for c in raw) < 0.0
        assert min(d.min() for d in used) >= 0.0


class TestWorkspaceMemory:
    def test_no_dense_free_dofs_by_pairs_array(self):
        mesh = build_rectangle_mesh(1.0, 16, 8)
        ops = assemble(mesh, Materials.constant(rho=1.0, mu=1.0, eta=1.0))
        ws = StepWorkspace(ops, 0.01)
        assert ws.lambda_max > 0.0
        full = ops.n_nodes * mesh.n_pairs
        for obj in (ws, ws.schur):
            for name, value in vars(obj).items():
                arrays = ([value] if isinstance(value, np.ndarray)
                          else [value.data, value.indices] if sp.issparse(value) else [])
                assert all(a.size < full for a in arrays), name


class TestSolveStatic:
    def test_zero_load_gives_zero(self):
        ops = toy_ops()
        law = CohesiveLaw(PrototypeEnvelope(1.0, 1.0))
        u = solve_static(ops, law, np.array([0.2]), np.zeros(2)).u_new
        assert np.allclose(u, 0.0, atol=1e-14)

    def test_stationarity_of_static_minimizer(self):
        ops = toy_ops()
        law = CohesiveLaw(PrototypeEnvelope(1.0, 1.0))
        f = np.array([1.5, -0.5])
        xi = np.array([0.4])
        res = solve_static(ops, law, xi, f, tol=1e-12)
        u = res.u_new
        B = jump_operator(ops.pairs, ops.n_nodes)
        g = node_scaled(ops)[2] @ u - f + B.T @ (ops.weights * law.dpsi_dw(B @ u, xi))
        assert np.abs(g).max() <= 1e-11
        # the post-step pass: the max-update and the residual with it
        assert res.xi_new.tobytes() == np.maximum(xi, np.abs(B @ u)).tobytes()
        g = node_scaled(ops)[2] @ u - f + B.T @ (ops.weights * law.dpsi_dw(B @ u, res.xi_new))
        assert res.el_residual == pytest.approx(np.abs(g).max(), rel=0.0, abs=1e-15)
        # the static functional at u
        A_mu = node_scaled(ops)[2]
        static = 0.5 * u @ (A_mu @ u) - f @ u + ops.weights @ law.psi(B @ u, xi)
        assert res.energy == pytest.approx(static, rel=1e-14)


class TestConvexityGuard:
    def test_tiny_beta_always_convex(self):
        grid = np.linspace(0.0, 1.0, 11)
        eps = 1e-6
        law = CohesiveLaw(TabulatedEnvelope(grid, grid - 0.5 * eps * grid**2,
                                            1.0 - eps * grid))
        for tau in (1e-3, 1.0, 1e6):
            assert convexity_guard(StepWorkspace(toy_ops(), tau), law.beta)

    def test_rectangle_prototype_small_tau(self):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        ops = assemble(mesh, Materials.constant(1.0, 1.0, 1.0))
        law = CohesiveLaw(PrototypeEnvelope(1.0, 1.0))
        assert convexity_guard(StepWorkspace(ops, 1e-3), law.beta)

    def test_large_tau_with_violated_coercivity(self):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        materials = Materials.constant(1.0, 1.0, 1.0)
        ops = assemble(mesh, materials)
        law = CohesiveLaw(PrototypeEnvelope(1.0, 0.2))  # beta = 50
        assert materials.mu_min * estimate_trace_constant(mesh, ops.A_unit) < law.beta
        tau = 1e3
        assert not convexity_guard(StepWorkspace(ops, tau), law.beta)
        # eigenvalue oracle on H0 - beta B'WB confirms indefiniteness
        free = ops.free_dofs
        ix = np.ix_(free, free)
        B_f = jump_operator(ops.pairs, ops.n_nodes)[:, free]
        M, A_eta, A_mu = node_scaled(ops)
        C = (M[ix] / tau**2 + A_eta[ix] / tau + A_mu[ix]
             - law.beta * (B_f.T @ sp.diags(ops.weights) @ B_f))
        lam_min = np.linalg.eigvalsh(C.toarray())[0]
        assert lam_min < 0.0

    def test_coercivity_route_on_small_domain(self):
        mesh = scaled(build_rectangle_mesh(1.0, 4, 4), 0.05)
        materials = Materials.constant(1.0, 1.0, 1.0)
        ops = assemble(mesh, materials)
        law = CohesiveLaw(PrototypeEnvelope(1.0, 1.0))  # beta = 2
        assert materials.mu_min * estimate_trace_constant(mesh, ops.A_unit) > law.beta
        assert convexity_guard(StepWorkspace(ops, 1e6), law.beta)

    @pytest.mark.parametrize("materials", [
        Materials.constant(1.0, 1.0, 1.0),
        Materials(1.0, 2.0, 1.0, 3.0, 0.5, 2.0),
    ])
    def test_exact_against_dense_eigenvalue_oracle(self, materials):
        mesh = build_rectangle_mesh(1.0, 4, 4)
        ops = assemble(mesh, materials)
        law = CohesiveLaw(PrototypeEnvelope(1.0, 0.2))  # beta = 50
        free = ops.free_dofs
        ix = np.ix_(free, free)
        B_f = jump_operator(ops.pairs, ops.n_nodes)[:, free]
        BWB = (B_f.T @ sp.diags(ops.weights) @ B_f).toarray()
        c_hat = estimate_trace_constant(mesh, ops.A_unit)
        M, A_eta, A_mu = node_scaled(ops)

        def oracle(tau):
            H0 = M[ix] / tau**2 + A_eta[ix] / tau + A_mu[ix]
            return bool(np.linalg.eigvalsh(H0.toarray() - law.beta * BWB)[0] > 0.0)

        # H0 decreases with tau: bisect the oracle's threshold, then test
        # both sides of it closely as well as a wide range of time steps
        lo, hi = 1e-4, 1e2
        assert oracle(lo) and not oracle(hi)
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            lo, hi = (mid, hi) if oracle(mid) else (lo, mid)
        taus = [*np.geomspace(1e-4, 1e2, 13), 0.999 * lo, 1.001 * hi]
        only_h0 = 0
        for tau in taus:
            accepted = convexity_guard(StepWorkspace(ops, tau), law.beta)
            assert accepted == oracle(tau)
            if materials.mu_plus == materials.mu_minus:
                # equal coefficients on both bodies: the (H4)-type criterion
                # leaves out M / tau^2, so it is sufficient, not necessary
                eta, mu = materials.eta_plus, materials.mu_plus
                algebraic = (eta / tau + mu) * c_hat > law.beta
                assert accepted or not algebraic
                only_h0 += accepted and not algebraic
        if materials.mu_plus == materials.mu_minus:
            assert only_h0 > 0
