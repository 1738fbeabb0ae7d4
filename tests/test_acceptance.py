"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance and prints one PASS line (visible
with ``pytest -s`` or in failure reports).  The standard ramp scenario is the
16x8 rectangle, prototype law g_c=1, xi_c=0.2, mu=rho=eta=1, T=1, n=200,
history floor 1e-3, bulk load 100 t sin(pi x) y.
"""

import time

import numpy as np
import pytest

from cohesim.audit import energy_ledger, kkt_report
from cohesim.evolution import run, trajectory_distance
from cohesim.law import CohesiveLaw, PrototypeEnvelope
from cohesim.mesh import build_rectangle_mesh, estimate_trace_constant, scaled

from oracles import max_interior, state_tractions, unit_stiffness
from scenarios import standard_ramp, unloading_tent
from test_step import oracle_minimize, toy_problem

SOLVER_TOL = 1e-10


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def standard_record():
    return run(standard_ramp(n=200), snapshot_stride=1, tol=SOLVER_TOL)


class TestCriterion1DerivativeSuite:
    def test_derivatives_match_finite_differences(self):
        t0 = time.monotonic()
        law = CohesiveLaw(PrototypeEnvelope(1.0, 0.2))
        h = 1e-6
        rng = np.random.default_rng(2024)
        xi_c = law.xi_c
        kept_w = kept_xi = 0
        while kept_w < 10_000 or kept_xi < 10_000:
            w = rng.uniform(-2.0 * xi_c, 2.0 * xi_c, 8192)
            xi = rng.uniform(0.0, 2.0 * xi_c, 8192)
            clear = ((np.abs(np.abs(w) - xi) > 1e-3)
                     & (np.abs(w) + xi > 1e-3)
                     & (np.abs(np.abs(w) - xi_c) > 1e-3)
                     & (np.abs(xi - xi_c) > 1e-3))
            w, xi = w[clear], xi[clear]

            exact_w = law.dpsi_dw(w, xi)
            fd_w = (law.psi(w + h, xi) - law.psi(w - h, xi)) / (2 * h)
            assert np.all(np.abs(exact_w - fd_w)
                          <= 1e-6 * np.maximum(1.0, np.abs(exact_w)))
            # derivative bound at every sample
            assert np.all(np.abs(exact_w) <= law.psi_prime_0 + 1e-12)
            kept_w += w.size

            ok = xi > h  # xi - h must stay inside the admissible half-plane
            exact_xi = law.dpsi_dxi(w[ok], xi[ok])
            fd_xi = (law.psi(w[ok], xi[ok] + h) - law.psi(w[ok], xi[ok] - h)) / (2 * h)
            assert np.all(np.abs(exact_xi - fd_xi)
                          <= 1e-6 * np.maximum(1.0, np.abs(exact_xi)))
            kept_xi += int(ok.sum())
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        _report(1, f"{kept_w} opening / {kept_xi} history samples, "
                   f"rel err <= 1e-6, bound held, {elapsed:.2f}s")


class TestCriterion2LambdaConvexity:
    def test_midpoint_convexity_of_shifted_density(self):
        law = CohesiveLaw(PrototypeEnvelope(1.0, 0.2))
        beta = law.beta
        xi_c = law.xi_c
        worst = 0.0
        for i, xi in enumerate((0.0, 0.1 * xi_c, xi_c, 2.0 * xi_c)):
            rng = np.random.default_rng(100 + i)
            a = rng.uniform(-2.5 * xi_c, 2.5 * xi_c, 10_000)
            b = rng.uniform(-2.5 * xi_c, 2.5 * xi_c, 10_000)

            def g(w):
                return law.psi(w, xi) + 0.5 * beta * w**2

            gap = g(0.5 * (a + b)) - 0.5 * (g(a) + g(b))
            worst = max(worst, float(gap.max()))
            assert np.all(gap <= 1e-10)
        _report(2, f"4 x 10^4 midpoint triples, worst convexity gap {worst:.2e}")


class TestCriterion3StepOracle:
    def test_solver_matches_convex_search_oracle(self):
        t0 = time.monotonic()
        from cohesim.step import solve_step

        rng = np.random.default_rng(123)
        worst = 0.0
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
            worst = max(worst, float(np.abs(res.u_new - ref).max()))
            assert np.all(np.abs(res.u_new - ref) <= 1e-8)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        _report(3, f"50 randomized draws, worst coordinate gap {worst:.2e}, "
                   f"{elapsed:.2f}s")


class TestCriterion4KKTExactness:
    def test_standard_ramp_kkt(self, standard_record):
        t0 = time.monotonic()
        rec = standard_record
        rep = kkt_report(rec)
        assert np.all(rep.admissibility <= 1e-12)
        assert np.all(rep.complementarity <= 1e-12)
        assert np.all(rep.slope <= 1e-12)
        assert np.all(np.diff(rec.xis, axis=0) >= 0.0)
        assert np.all(np.abs(rec.jumps) <= rec.xis)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0  # audit time; the shared run itself takes ~1s
        _report(4, f"max violation {rep.max_violation:.2e} over "
                   f"{rec.n_steps} steps x {rec.xis.shape[1]} nodes")


class TestCriterion5EnergyIdentity:
    def test_residual_order_under_tau_halving(self, standard_record):
        maxima = [energy_ledger(standard_record).max_residual]
        gaps = [energy_ledger(standard_record).max_split_gap]
        for n in (400, 800, 1600):
            led = energy_ledger(run(standard_ramp(n=n), snapshot_stride=n,
                                    tol=SOLVER_TOL))
            maxima.append(led.max_residual)
            gaps.append(led.max_split_gap)
        orders = [float(np.log2(a / b)) for a, b in zip(maxima, maxima[1:])]
        assert all(o >= 0.5 for o in orders), orders
        scale = 10.0  # energies are O(1..10) on this scenario
        assert all(g <= 1e-12 * scale for g in gaps), gaps
        _report(5, "orders " + ", ".join(f"{o:.2f}" for o in orders)
                + f"; worst split gap {max(gaps):.2e}")


class TestCriterion6ElasticUnloading:
    def test_unload_reload_traces_elastic_line(self):
        rec = run(unloading_tent(n=200), snapshot_stride=1, tol=SOLVER_TOL)
        law, ops = rec.law, rec.ops
        floor = rec.xis[0][0]
        opened = rec.xis[-1] > 1.5 * floor
        assert opened.any()
        growth = (np.diff(rec.xis[:, opened], axis=0) > 0).any(axis=1)
        k_freeze = int(np.nonzero(growth)[0].max()) + 2
        n = rec.n_steps
        assert k_freeze < 140, "history must freeze before the reload leg"
        # history constant at the opened nodes through unload and reload
        assert np.all(rec.xis[k_freeze:, opened] == rec.xis[k_freeze, opened])
        worst_unload = worst_reload = 0.0
        for k in range(k_freeze, n + 1):
            prev, cur = rec.state(k - 1), rec.state(k)
            f = rec.loads.at(cur.t)
            tf = state_tractions(prev, cur, ops, law, f)
            sel = opened & tf.interior & (np.abs(rec.jumps[k]) < rec.xis[k])
            if not sel.any():
                continue
            line = law.frozen(rec.xis[k][sel]).c_xi * rec.jumps[k][sel]
            defect = float(np.abs(tf.sigma_plus[sel] - line).max())
            tol_k = 10.0 * SOLVER_TOL * (1.0 + np.abs(f).max())
            assert defect <= tol_k
            if rec.ts[k] <= 0.7:
                worst_unload = max(worst_unload, defect)
            else:
                worst_reload = max(worst_reload, defect)
        _report(6, f"{int(opened.sum())} opened nodes froze at step {k_freeze}; "
                   f"line defects: unload {worst_unload:.2e}, "
                   f"reload (hysteresis) {worst_reload:.2e}")


class TestCriterion7TractionBounds:
    def test_bounds_and_transmission_every_step(self, standard_record):
        rec = standard_record
        law, ops = rec.law, rec.ops
        bound = law.psi_prime_0 * (1.0 + 1e-8)
        worst_sigma = worst_trans = 0.0
        for k in range(1, rec.n_steps + 1):
            prev, cur = rec.state(k - 1), rec.state(k)
            f = rec.loads.at(cur.t)
            tf = state_tractions(prev, cur, ops, law, f)
            s = max(max_interior(tf, tf.sigma_plus), max_interior(tf, tf.sigma_minus))
            worst_sigma = max(worst_sigma, s)
            assert s <= bound
            d = max_interior(tf, tf.transmission_defect)
            worst_trans = max(worst_trans, d)
            assert d <= 10.0 * SOLVER_TOL * (1.0 + np.abs(f).max())
        _report(7, f"max interior |sigma nu| {worst_sigma:.4f} <= {bound:.4f}; "
                   f"max transmission defect {worst_trans:.2e}")


class TestCriterion8EpsContinuation:
    def test_distances_decrease_monotonically(self):
        sc = standard_ramp(n=100)
        assert np.all(sc.xi0 == 0.0)
        records = [run(sc.with_eps(eps), tol=SOLVER_TOL, snapshot_stride=1)
                   for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        d = [trajectory_distance(a, b) for a, b in zip(records, records[1:])]
        assert all(np.isfinite(d)), d
        assert all(b < a for a, b in zip(d, d[1:])), d
        _report(8, "distances " + " > ".join(f"{x:.3e}" for x in d))


class TestCriterion9RegularityBoundedness:
    def test_norms_stable_under_tau_and_eps_halving(self):
        base = run(standard_ramp(n=100, regularity_mode=True),
                   snapshot_stride=100, tol=SOLVER_TOL)
        tau_half = run(standard_ramp(n=200, regularity_mode=True),
                       snapshot_stride=200, tol=SOLVER_TOL)
        eps_half = run(standard_ramp(n=100, eps_bar=5e-4, regularity_mode=True),
                       snapshot_stride=100, tol=SOLVER_TOL)
        def sup_norms(rec):
            return rec.v_h1.max(), rec.a_l2.max()

        v0, a0 = sup_norms(base)
        for label, rec_norms in (("tau/2", sup_norms(tau_half)),
                                 ("eps/2", sup_norms(eps_half))):
            v, a = rec_norms
            assert abs(v - v0) <= 0.2 * v0, (label, v, v0)
            assert abs(a - a0) <= 0.2 * a0, (label, a, a0)
        _report(9, f"sup|v|_H1 = {v0:.4f}, sup|a|_L2 = {a0:.4f}, "
                   "variation <= 20% under both halvings")


class TestCriterion10TraceScaling:
    def test_scaling_and_margin_sign_flip(self, capsys):
        mesh = build_rectangle_mesh(1.0, 8, 4)
        c_base = estimate_trace_constant(mesh, unit_stiffness(mesh))
        for factor in (0.5, 2.0):
            resized = scaled(mesh, factor)
            c = estimate_trace_constant(resized, unit_stiffness(resized))
            assert c == pytest.approx(c_base / factor, rel=0.05)

        # check-law margin flips sign between the small and large domain
        from pathlib import Path

        from cohesim.cli import main

        scen_dir = Path(__file__).resolve().parents[1] / "scenarios"
        assert main(["check-law", str(scen_dir / "check_law_small_domain.json")]) == 0
        small = capsys.readouterr().out
        assert main(["check-law", str(scen_dir / "check_law_large_domain.json")]) == 0
        large = capsys.readouterr().out

        def margin(text):
            line = [l for l in text.splitlines() if l.startswith("H4 margin")][0]
            return float(line.split("=")[1].split("(")[0])

        m_small, m_large = margin(small), margin(large)
        assert m_small > 0 > m_large
        _report(10, f"c_hat scaling exact within 5%; margins {m_small:.3f} / "
                    f"{m_large:.3f} flip sign")
