"""Audit tests: energy ledger identities, KKT report, weak residual and
traction extraction, the last two against the states' own bulk residual
(``oracles``)."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cohesim.assembly import Materials
from cohesim.audit import energy_ledger, kkt_report, traction_extraction
from cohesim.cli import main
from cohesim.config import parse_scenario
from cohesim.evolution import run

from oracles import (bulk_residual, jump_operator, max_interior, node_scaled, state_tractions,
                     weak_residual)
from scenarios import rest_scenario, small_ramp, unloading_tent

TOL = 1e-10
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def ramp_record():
    return run(small_ramp(), snapshot_stride=1, tol=TOL)


@pytest.fixture(scope="module")
def rest_record():
    return run(rest_scenario(), snapshot_stride=1)


class TestEnergyLedger:
    def test_rest_residual_is_zero(self, rest_record):
        led = energy_ledger(rest_record)
        assert np.all(led.R == 0.0)
        assert np.all(led.R_split == 0.0)

    def test_split_and_unsplit_agree(self, ramp_record):
        led = energy_ledger(ramp_record)
        scale = max(1.0, np.abs(led.E + led.K + led.Psi).max())
        assert led.max_split_gap <= 1e-12 * scale

    def test_residual_decreases_under_tau_halving(self):
        maxima = []
        for n in (120, 240, 480):
            rec = run(small_ramp(n=n, n_x=4, n_y=2), snapshot_stride=n)
            maxima.append(energy_ledger(rec).max_residual)
        orders = [np.log2(a / b) for a, b in zip(maxima, maxima[1:])]
        assert all(o >= 0.5 for o in orders), orders

    def test_only_external_work_changes_sign(self, ramp_record):
        led = energy_ledger(ramp_record)
        assert np.all(np.diff(led.D_cum) >= 0.0)
        assert np.all(np.diff(led.Psi_d) >= -1e-15)


class TestKKTReport:
    def test_all_violations_at_machine_level(self, ramp_record):
        rep = kkt_report(ramp_record)
        assert rep.max_violation <= 1e-12
        assert np.all(rep.xi_monotone == 0.0)

    @pytest.mark.parametrize("column", ["admissibility", "complementarity", "slope",
                                        "xi_monotone"])
    def test_nan_in_one_column_reaches_max_violation(self, ramp_record, column):
        steps = ramp_record.steps.copy()
        steps[column][3] = np.nan
        rep = kkt_report(replace(ramp_record, steps=steps))
        assert np.isnan(rep.max_violation)

    def test_idle_node_has_constant_history(self, ramp_record):
        # with the small-amplitude run some node never leaves the floor
        rec = run(small_ramp(n=120, amplitude=60.0), snapshot_stride=120)
        xi = rec.xis
        idle = xi[-1] <= rec.xis[0][0]
        assert idle.any()
        assert np.all(xi[:, idle] == xi[0, idle])

    def test_growing_node_touches_constraint(self, ramp_record):
        xi = ramp_record.xis
        jumps = ramp_record.jumps
        grew = np.diff(xi, axis=0) > 0
        steps, nodes = np.nonzero(grew)
        assert steps.size > 0
        for k, j in zip(steps + 1, nodes):
            assert abs(jumps[k, j]) == xi[k, j]


class TestWeakResidual:
    def test_rest_residual_zero(self, rest_record):
        s0, s1 = rest_record.state(0), rest_record.state(1)
        f = rest_record.loads.at(s1.t)
        assert weak_residual(s0, s1, rest_record.ops, rest_record.law, f) == 0.0

    def test_post_solve_residual_within_tolerance(self, ramp_record):
        for k in (1, ramp_record.n_steps // 2, ramp_record.n_steps):
            prev, cur = ramp_record.state(k - 1), ramp_record.state(k)
            f = ramp_record.loads.at(cur.t)
            res = weak_residual(prev, cur, ramp_record.ops, ramp_record.law, f)
            assert res <= 10.0 * TOL * (1.0 + np.abs(f).max())

    def test_perturbation_sensitivity_matches_hessian_row(self, ramp_record):
        k = ramp_record.n_steps
        prev, cur = ramp_record.state(k - 1), ramp_record.state(k)
        ops = ramp_record.ops
        f = ramp_record.loads.at(cur.t)
        dof = ops.free_dofs[len(ops.free_dofs) // 2]
        delta = 1e-3
        u_pert = cur.u.copy()
        u_pert[dof] += delta
        pert = type(cur)(t=cur.t, u=u_pert, v=cur.v, xi=cur.xi, k=cur.k)
        res = weak_residual(prev, pert, ops, ramp_record.law, f)
        # dominant growth ~ |A_mu column| * delta (viscous/mass unchanged)
        col = np.abs(node_scaled(ops)[2][:, dof].toarray()).max()
        assert res == pytest.approx(col * delta, rel=0.5)


class TestTractionExtraction:
    def test_rest_tractions_vanish(self, rest_record):
        s0, s1 = rest_record.state(0), rest_record.state(1)
        f = rest_record.loads.at(s1.t)
        tf = state_tractions(s0, s1, rest_record.ops, rest_record.law, f)
        assert np.all(tf.sigma_plus == 0.0)
        assert np.all(tf.sigma_minus == 0.0)

    def test_cohesive_consistency_and_transmission(self, ramp_record):
        k = ramp_record.n_steps
        prev, cur = ramp_record.state(k - 1), ramp_record.state(k)
        f = ramp_record.loads.at(cur.t)
        tf = state_tractions(prev, cur, ramp_record.ops, ramp_record.law, f)
        tol_abs = 10.0 * TOL * (1.0 + np.abs(f).max()) / ramp_record.ops.weights.min()
        assert max_interior(tf, tf.cohesive_defect) <= tol_abs
        assert max_interior(tf, tf.transmission_defect) <= tol_abs

    def test_threshold_bound_every_snapshot(self, ramp_record):
        bound = ramp_record.law.psi_prime_0 * (1.0 + 1e-8)
        for k in range(1, ramp_record.n_steps + 1):
            prev, cur = ramp_record.state(k - 1), ramp_record.state(k)
            f = ramp_record.loads.at(cur.t)
            tf = state_tractions(prev, cur, ramp_record.ops, ramp_record.law, f)
            assert max_interior(tf, tf.sigma_plus) <= bound
            assert max_interior(tf, tf.sigma_minus) <= bound

    def test_interface_rows_match_full_residual_bitwise(self):
        rec = run(unloading_tent(n=40, n_x=8, n_y=4), snapshot_stride=1, tol=TOL)
        ops, pairs, w = rec.ops, rec.ops.mesh.interface_pairs, rec.ops.weights
        for k in range(1, rec.n_steps + 1):
            prev, cur = rec.state(k - 1), rec.state(k)
            f = rec.loads.at(cur.t)
            tf = state_tractions(prev, cur, ops, rec.law, f)
            r = bulk_residual(prev, cur, ops, f)
            assert np.array_equal(tf.sigma_plus, -r[pairs[:, 0]] / w)
            assert np.array_equal(tf.sigma_minus, r[pairs[:, 1]] / w)
            assert np.any(tf.sigma_plus != 0.0)

    def test_step_traction_and_load_match_recomputation_bitwise(self):
        # the step table keeps the step's own cohesive traction for the audit,
        # and the step's load is the one the record's work column reads
        rec = run(unloading_tent(n=40, n_x=8, n_y=4), tol=TOL, snapshot_stride=1)
        ops, law, prev = rec.ops, rec.law, rec.state(0)
        B = jump_operator(ops.pairs, ops.n_nodes)
        fields = ("sigma_plus", "sigma_minus", "cohesive", "transmission_defect",
                  "cohesive_defect", "interior")
        work = np.zeros(rec.n_steps + 1)
        for k in range(1, rec.n_steps + 1):
            state = rec.state(k)
            f = rec.loads.at(state.t)
            work[k] = rec.tau * (f @ state.v)
            assert rec.traction[k].tobytes() == law.dpsi_dw(B @ state.u, state.xi).tobytes()
            r = bulk_residual(prev, state, ops, f)
            given = traction_extraction(ops, law, tuple(r[nodes] for nodes in ops.pairs),
                                        rec.traction[k])
            own = state_tractions(prev, state, ops, law, f)
            for name in fields:
                assert getattr(given, name).tobytes() == getattr(own, name).tobytes()
            assert given.bound == own.bound
            prev = state
        assert rec.n_steps == 40
        assert np.cumsum(work).tobytes() == rec.P_cum.tobytes()

    @pytest.mark.parametrize("scenario", [small_ramp(n=60), unloading_tent(n=40, n_x=8, n_y=4)],
                             ids=["ramp", "tent"])
    def test_step_residual_matches_recomputation(self, scenario):
        # the step's bulk residual H0 u_k + b, kept in the step table, and the
        # one formed from the states, M a + A_eta v + A_mu u - f, agree up to
        # rounding, and both pass the transmission gate
        rec = run(scenario, tol=TOL, snapshot_stride=1)
        ops, law = rec.ops, rec.law
        prev = rec.state(0)
        for k in range(1, rec.n_steps + 1):
            state = rec.state(k)
            f = rec.loads.at(state.t)
            given = traction_extraction(ops, law, rec.residual[k], rec.traction[k])
            own = state_tractions(prev, state, ops, law, f)
            scale = 1.0 + max(np.abs(own.sigma_plus).max(), np.abs(own.sigma_minus).max())
            for name in ("sigma_plus", "sigma_minus"):
                assert np.abs(getattr(given, name) - getattr(own, name)).max() <= 1e-10 * scale
            tol_abs = 10.0 * TOL * (1.0 + np.abs(f).max()) / ops.weights.min()
            for tf in (given, own):
                assert max_interior(tf, tf.transmission_defect) <= tol_abs
            prev = state
        assert np.any(rec.xis[-1] > rec.xis[0])

    @pytest.mark.parametrize("name", ["standard_ramp", "unloading_tent"],
                             ids=["ramp", "tent"])
    def test_cli_tractions_match_the_states_bulk_residual(self, name, tmp_path):
        # the CLI audits the step's own residual; each row of tractions.csv
        # equals the maxima of the tractions formed from the recorded states
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["mesh"].update(n_x=8, n_y=4)
        doc["output"] = {"vtk": False}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        table = np.loadtxt(tmp_path / "out" / "tractions.csv", delimiter=",", skiprows=1)

        rec = run(parse_scenario(doc).scenario, snapshot_stride=1)
        ops, law = rec.ops, rec.law
        assert table.shape == (rec.n_steps, 7)
        for k, row in zip(range(1, rec.n_steps + 1), table):
            cur = rec.state(k)
            tf = state_tractions(rec.state(k - 1), cur, ops, law,
                                 rec.loads.at(min(cur.t, rec.loads.t_final)))
            maxima = [max_interior(tf, getattr(tf, field)) for field in
                      ("sigma_plus", "sigma_minus", "transmission_defect", "cohesive_defect")]
            assert row[0] == k and row[1] == cur.t and row[6] == tf.bound
            scale = 1.0 + max(maxima[:2])
            assert np.abs(row[2:6] - maxima).max() <= 1e-10 * scale, k
        assert np.any(rec.xis[-1] > 2.0 * rec.xis[0])     # the interface opened


class TestElasticUnloading:
    def test_unload_freezes_history_and_traction_line(self):
        rec = run(unloading_tent(n=120, n_x=8, n_y=4), snapshot_stride=1, tol=TOL)
        law, ops = rec.law, rec.ops
        floor = rec.xis[0][0]
        opened = rec.xis[-1] > 1.5 * floor
        assert opened.any()
        growth = (np.diff(rec.xis[:, opened], axis=0) > 0).any(axis=1)
        k_freeze = int(np.nonzero(growth)[0].max()) + 2
        assert k_freeze < rec.n_steps - 10  # leaves a window across the reload
        window = range(k_freeze, rec.n_steps + 1)
        assert np.all(rec.xis[k_freeze:, opened] == rec.xis[k_freeze, opened])
        for k in window:
            prev, cur = rec.state(k - 1), rec.state(k)
            f = rec.loads.at(cur.t)
            tf = state_tractions(prev, cur, ops, law, f)
            sel = opened & tf.interior & (np.abs(rec.jumps[k]) < rec.xis[k])
            if not sel.any():
                continue
            line = law.frozen(rec.xis[k][sel]).c_xi * rec.jumps[k][sel]
            defect = np.abs(tf.sigma_plus[sel] - line).max()
            assert defect <= 10.0 * TOL * (1.0 + np.abs(f).max()) / ops.weights.min()


class TestTwoMaterials:
    def test_every_gate_holds_across_the_material_jump(self):
        # the steps and the audit read node-scaled unit forms; each node is in
        # one body, so the identity holds on both sides of the interface
        materials = Materials(1.3, 0.7, 2.0, 3.0, 0.5, 1.5)
        maxima = []
        for n in (120, 240, 480):
            rec = run(replace(small_ramp(n=n, n_x=4, n_y=2), materials=materials), tol=TOL,
                      snapshot_stride=1)
            assert kkt_report(rec).max_violation == 0.0
            led = energy_ledger(rec)
            assert led.max_split_gap <= 1e-12 * max(1.0, np.abs(led.E + led.K + led.Psi).max())
            maxima.append(led.max_residual)
            prev, law, ops = rec.state(0), rec.law, rec.ops
            for k in range(1, n + 1):
                state = rec.state(k)
                f = rec.loads.at(state.t)
                tf = state_tractions(prev, state, ops, law, f)
                assert tf.cohesive.tobytes() == rec.traction[k].tobytes()
                tol_abs = 10.0 * TOL * (1.0 + np.abs(f).max()) / ops.weights.min()
                assert max_interior(tf, tf.cohesive_defect) <= tol_abs
                assert max_interior(tf, tf.transmission_defect) <= tol_abs
                bound = law.psi_prime_0 * (1.0 + 1e-8)
                assert max_interior(tf, tf.sigma_plus) <= bound
                assert max_interior(tf, tf.sigma_minus) <= bound
                prev = state
            assert np.any(rec.xis[-1] > rec.xis[0])     # the interface opened
        orders = [np.log2(a / b) for a, b in zip(maxima, maxima[1:])]
        assert all(o >= 0.5 for o in orders), orders


class TestRegularityNorms:
    def test_rest_norms_vanish(self, rest_record):
        assert (rest_record.v_h1.max(), rest_record.a_l2.max()) == (0.0, 0.0)

    def test_stable_under_tau_halving(self):
        vals = []
        for n in (120, 240):
            rec = run(small_ramp(n=n, n_x=4, n_y=2, regularity_mode=True),
                      snapshot_stride=n)
            vals.append((rec.v_h1.max(), rec.a_l2.max()))
        for a, b in zip(vals[0], vals[1]):
            assert b == pytest.approx(a, rel=0.2)
