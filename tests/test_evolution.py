"""Evolution-driver tests: fixed points, history monotonicity, initial-data
regularization, self-convergence and the history-floor sweep (run by
``cohesim study``)."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse._compressed import _cs_matrix

import cohesim.assembly
import cohesim.cli
import cohesim.evolution as evolution
import cohesim.step as step_module
from cohesim.assembly import LoadModel
from cohesim.cli import _node_injection, _study_levels, main
from cohesim.config import load_scenario_file, load_study_file
from cohesim.audit import energy_ledger, kkt_report
from cohesim.evolution import (
    EvolutionError,
    Scenario,
    regularize_initial_data,
    run,
    trajectory_distance,
)
from cohesim.law import CohesiveLaw, FrozenHistory, PrototypeEnvelope
from cohesim.mesh import build_rectangle_mesh
from cohesim.step import ConvexityError, StepSolverError

from oracles import jump_operator, per_triangle
from scenarios import mild_ramp, rest_scenario, small_ramp, standard_ramp, unloading_tent

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.fixture(scope="module")
def ramp_record():
    return run(small_ramp(), snapshot_stride=1)


class TestRun:
    def test_rest_state_stays_at_rest(self):
        rec = run(rest_scenario())
        assert np.all(rec.E == 0.0)
        assert np.all(rec.K == 0.0)
        assert np.all(rec.Psi_s == 0.0)
        assert np.all(rec.D_cum == 0.0)
        assert np.all(rec.P_cum == 0.0)
        assert np.allclose(rec.us[rec.n_steps], 0.0)
        # history stays at the regularization floor
        assert np.all(rec.xis == rec.xis[0])

    def test_record_lengths_are_n_plus_one(self, ramp_record):
        n = ramp_record.n_steps
        for arr in (ramp_record.ts, ramp_record.E, ramp_record.K, ramp_record.Psi,
                    ramp_record.D_cum, ramp_record.P_cum, ramp_record.v_h1):
            assert arr.shape[0] == n + 1

    def test_history_monotone_and_admissible(self, ramp_record):
        assert np.all(np.diff(ramp_record.xis, axis=0) >= 0.0)
        assert np.all(np.abs(ramp_record.jumps) <= ramp_record.xis)

    def test_dissipated_energy_monotone(self, ramp_record):
        assert np.all(np.diff(ramp_record.Psi_d) >= -1e-15)
        assert np.all(np.diff(ramp_record.D_cum) >= 0.0)

    def test_velocity_interpolant_identity(self, ramp_record):
        tau = ramp_record.tau
        for k in range(1, ramp_record.n_steps + 1):
            du = ramp_record.us[k] - ramp_record.us[k - 1]
            scale = max(1.0, np.abs(du).max())
            assert np.allclose(du, tau * ramp_record.vs[k], atol=1e-15 * scale)

    def test_snapshot_stride_thins_fields_not_scalars(self):
        rec = run(mild_ramp(n=20), snapshot_stride=5)
        assert rec.snapshot_steps == [0, 5, 10, 15, 20]
        assert set(rec.us) == {0, 5, 10, 15, 20}
        assert rec.E.shape[0] == 21  # scalars recorded every step

    def test_record_keeps_each_steps_residual_and_traction(self, monkeypatch):
        # rows 1..n of the residual and traction columns hold each step's
        # StepResult bit for bit, row 0 holds zeros, and a partial record
        # holds them for the rows before the failed step
        real, results, fail_at = evolution.solve_step, [], None

        def solve_step(prob, tol=1e-10):
            if len(results) + 1 == fail_at:
                raise StepSolverError("forced failure", u_last=prob.u_prev, grad_norm=1.0)
            results.append(real(prob, tol=tol))
            return results[-1]

        def same_as_steps(rec):
            assert not rec.residual[0].any() and not rec.traction[0].any()
            assert rec.steps.size == len(results) + 1
            for k, res in enumerate(results, start=1):
                assert rec.residual[k].tobytes() == np.array(res.residual).tobytes()
                assert rec.traction[k].tobytes() == res.traction.tobytes()

        monkeypatch.setattr(evolution, "solve_step", solve_step)
        same_as_steps(run(unloading_tent(n=10, n_x=8, n_y=4)))
        assert len(results) == 10
        results.clear()
        fail_at = 7
        with pytest.raises(EvolutionError) as err:
            run(unloading_tent(n=10, n_x=8, n_y=4))
        assert err.value.step == 7
        same_as_steps(err.value.partial)

    def test_convexity_guard_failure_raises(self):
        sc = standard_ramp(n=2, n_x=4, n_y=2, T=2e6)  # tau = 1e6
        with pytest.raises(ConvexityError, match="time step"):
            run(sc)

    @staticmethod
    def record_factors(monkeypatch):
        """Record the orderings and factorizations a run makes; each factor
        counts its solves by ``trans`` (of the kept factor ``U``, ``"T"`` is a
        forward sweep and ``"N"`` a backward sweep)."""
        calls, factors = [], []
        real_splu, real_spilu = spla.splu, spla.spilu

        class Counted:
            def __init__(self, lu):
                self.lu, self.sweeps = lu, []

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, rhs, trans="N"):
                self.sweeps.append(trans)
                return self.lu.solve(rhs, trans)

        def splu(A, **kwargs):
            calls.append(("splu", A.shape, kwargs["permc_spec"]))
            factors.append(Counted(real_splu(A, **kwargs)))
            return factors[-1]

        def spilu(A, **kwargs):
            calls.append(("spilu", A.shape, kwargs["permc_spec"]))
            return real_spilu(A, **kwargs)

        monkeypatch.setattr(spla, "splu", splu)
        monkeypatch.setattr(spla, "spilu", spilu)
        return calls, factors

    def test_run_factorizes_once_with_symmetric_ordering(self, monkeypatch):
        # one minimum-degree order of the interior block, one interface-last
        # factorization of H0, then the factors of the trailing block of its U
        # (solved twice, for Z and S) and, on the first sweep, of U itself, the
        # one kept; each step sweeps U once forward and once backward, the
        # first factor never
        factorization = [("spilu", "MMD_AT_PLUS_A")] + [("splu", "NATURAL")] * 3
        calls, factors = self.record_factors(monkeypatch)
        run(mild_ramp(n=5))
        assert [(kind, spec) for kind, _, spec in calls] == factorization
        assert [f.sweeps for f in factors] == [[], ["T", "N"], ["T", "N"] * 5]
        # a refused time step is decided on the same single factorization,
        # and sweeps nothing, so U is not factorized
        calls.clear()
        factors.clear()
        with pytest.raises(ConvexityError, match="time step"):
            run(standard_ramp(n=2, n_x=4, n_y=2, T=2e6))
        assert [(kind, spec) for kind, _, spec in calls] == factorization[:3]
        assert [f.sweeps for f in factors] == [[], ["T", "N"]]

    def test_check_law_factorizes_no_sweep_factor(self, monkeypatch, capsys):
        # the trace constant and the step margin read S alone: 2
        # factorizations each, and U is never swept, so never factorized
        calls, factors = self.record_factors(monkeypatch)
        assert main(["check-law", str(SCENARIOS / "check_law_small_domain.json")]) == 0
        assert [kind for kind, _, _ in calls] == ["spilu", "splu", "splu"] * 2
        assert [f.sweeps for f in factors] == [[], ["T", "N"]] * 2

    def test_regularity_mode_cli_run_factorizes_each_block_once(self, monkeypatch,
                                                                tmp_path):
        # the static solve of the initial data factorizes A_mu, the time
        # loop H0; the traction audit must not trigger a second static solve
        calls, factors = self.record_factors(monkeypatch)
        doc = {
            "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 8, "n_y": 4},
            "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
            "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 0.2},
            "loads": {"bulk": "100 * (t + 0.05) * sin(pi * x) * y"},
            "time": {"T": 0.1, "n": 20},
            "initial": {"v0": "0.1 * sin(pi * x) * (1 - y * y)",
                        "w0": "sin(pi * x) * y"},
            "regularization": {"eps_bar": 0.001, "regularity_mode": True},
            "output": {"snapshot_stride": 10, "vtk": False},
        }
        path = tmp_path / "regularity.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        # the blocks are nodal; InterfaceSchur eliminates the Dirichlet nodes
        # and orders the interior nodes (neither Dirichlet nor interface) alone
        mesh = build_rectangle_mesh(1.0, 8, 4)
        n, m = mesh.n_nodes, 2 * mesh.n_pairs
        n_inner = mesh.free_nodes.size - m
        assert calls == [("spilu", (n_inner, n_inner), "MMD_AT_PLUS_A"),
                         ("splu", (n, n), "NATURAL"), ("splu", (m, m), "NATURAL"),
                         ("splu", (n, n), "NATURAL")] * 2
        assert [f.sweeps for f in factors] == [[], ["T", "N"], ["T", "N"],
                                               [], ["T", "N"], ["T", "N"] * 20]
        assert (tmp_path / "out" / "tractions.csv").read_text().count("\n") == 21

    def test_recorded_columns_equal_their_recomputation(self):
        # the post-step pass stands in for law.split and B @ u, bit for bit;
        # the bulk columns are nodal scalings of the products of u_k, equal to
        # the per-triangle forms up to rounding
        scenario = unloading_tent(n=40, n_x=8, n_y=4)
        rec = run(scenario, snapshot_stride=1)
        ops, law, w, tau = rec.ops, rec.law, rec.ops.weights, rec.tau
        mesh, mat = ops.mesh, scenario.materials
        plus = mesh.tri_side > 0
        A_mu = per_triangle(mesh, "stiffness", np.where(plus, mat.mu_plus, mat.mu_minus))
        A_eta = per_triangle(mesh, "stiffness", np.where(plus, mat.eta_plus, mat.eta_minus))
        M = per_triangle(mesh, "mass", np.where(plus, mat.rho_plus, mat.rho_minus))
        A_unit, M_unit = per_triangle(mesh, "stiffness"), per_triangle(mesh, "mass")
        # pairs unload along the elastic branch above the history floor
        assert np.any((np.abs(rec.jumps) < rec.xis) & (rec.xis > 2e-3))
        bulk = {name: np.zeros(rec.n_steps + 1) for name in ("E", "K", "v_h1", "D_cum", "a_l2")}
        for k in range(rec.n_steps + 1):
            u, v, xi, row = rec.us[k], rec.vs[k], rec.xis[k], rec.steps[k]
            jumps = jump_operator(ops.pairs, ops.n_nodes) @ u
            psi_s, psi_d = law.split(jumps, xi)
            expected = {"jumps": jumps,
                        "Psi": w @ (psi_s + psi_d),
                        "Psi_s": w @ psi_s,
                        "Psi_d": w @ psi_d}
            for name, value in expected.items():
                assert same_bits(row[name], value), (k, name)
            bulk["E"][k] = 0.5 * (u @ (A_mu @ u))
            bulk["K"][k] = 0.5 * (v @ (M @ v))
            bulk["v_h1"][k] = np.sqrt(v @ (A_unit @ v) + v @ (M_unit @ v))
            if k:
                bulk["D_cum"][k] = bulk["D_cum"][k - 1] + tau * (v @ (A_eta @ v))
                a = (v - rec.vs[k - 1]) / tau
                bulk["a_l2"][k] = np.sqrt(a @ (M_unit @ a))
        for name, value in bulk.items():
            assert np.abs(rec.steps[name] - value).max() <= 1e-13 * np.abs(value).max(), name
            assert np.abs(value).max() > 0.0, name

    def test_dissipated_energy_is_formed_once_per_history(self, monkeypatch):
        # Psi_d is w @ psi(0, xi_k) bit for bit on every row of the unloading
        # tent, and the record sums it only for a history it has not seen:
        # row 0's and each new one a step hands on
        sums = []
        real = FrozenHistory.psi_at_zero

        def psi_at_zero(hist):
            sums.append(hist)
            return real(hist)

        monkeypatch.setattr(FrozenHistory, "psi_at_zero", psi_at_zero)
        rec = run(unloading_tent(n=40, n_x=8, n_y=4))
        monkeypatch.undo()
        w = rec.ops.weights
        for k in range(rec.n_steps + 1):
            assert same_bits(rec.Psi_d[k], w @ rec.law.psi(0.0, rec.xis[k])), k
        new = [0] + [k for k in range(1, rec.n_steps + 1)
                     if not same_bits(rec.xis[k], rec.xis[k - 1])]
        assert 1 < len(new) < rec.n_steps
        # the record's psi_s reads psi(0, xi_k) once a row; the sum adds one
        # read per new history
        assert len(sums) == rec.n_steps + 1 + len(new)

    def test_two_full_size_sparse_products_per_step(self, monkeypatch, tmp_path):
        # a step forms M_unit u_k and A_unit u_k, one call of the CSR kernel
        # each; every other bulk quantity of the step and its record is a
        # nodal scaling of stored products, and the jumps and B' r are read at
        # the pairs' nodes, with no product with B or B'; a CLI run's traction
        # audit reads the step's own bulk residual, so the step's two kernel
        # calls are its only sparse products of any shape, and none goes
        # through scipy's sparse matmul
        scenario = unloading_tent(n=20, n_x=8, n_y=4)
        n_nodes = scenario.mesh.n_nodes
        count = {"kernel": 0, "scipy": 0}
        real_kernel = cohesim.assembly.csr_matvec

        def kernel(n_row, n_col, *args):
            assert n_row == n_col == n_nodes
            count["kernel"] += 1
            return real_kernel(n_row, n_col, *args)

        def counted(real):
            def wrapper(self, other):
                count["scipy"] += 1
                return real(self, other)
            return wrapper

        monkeypatch.setattr(cohesim.assembly, "csr_matvec", kernel)
        for name in ("_matmul_vector", "_matmul_multivector"):
            monkeypatch.setattr(_cs_matrix, name, counted(getattr(_cs_matrix, name)))
        ends = []       # the counts at each step's return
        real_solve = evolution.solve_step

        def solve_step(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            ends.append((count["kernel"], count["scipy"]))
            return out

        monkeypatch.setattr(evolution, "solve_step", solve_step)
        run(scenario)
        assert np.diff(ends, axis=0).tolist() == [[2, 0]] * 19

        # the CLI: one step is its load lookup, solve and record, and the
        # audit of all steps after the loop makes no product
        ends.clear()
        audits = []
        real_audit = cohesim.cli.traction_extraction

        def audit(*args, **kwargs):
            audits.append((count["kernel"], count["scipy"]))
            return real_audit(*args, **kwargs)

        monkeypatch.setattr(cohesim.cli, "traction_extraction", audit)
        path = tmp_path / "tent.json"
        doc = json.loads((SCENARIOS / "unloading_tent.json").read_text())
        doc["mesh"].update(n_x=8, n_y=4)
        doc["time"]["n"] = 20
        doc["output"] = {"vtk": False}
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert np.diff(ends, axis=0).tolist() == [[2, 0]] * 19
        assert audits == ends[-1:]

    def test_cli_run_evaluates_law_and_load_once_after_newton(self, monkeypatch,
                                                              tmp_path):
        # between the end of a step's Newton loop and the start of the next
        # step's solve: a frozen history only when the max-update grew a pair,
        # whose envelope pass is then the only law call, the traction audit
        # included; a step that grows no pair makes none.  The post-step pass
        # evaluates on the updated history's cone, with no law pass
        # (branches(), which evaluate() makes too) and no envelope pass of its
        # own; one load lookup per step in the whole run, after the one that
        # parsing makes at t = 0
        post = []          # per step, the counts after its Newton loop
        loads_at = []
        records = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if post and post[-1]["open"]:
                    post[-1][name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_minimize, real_solve = step_module._minimize, evolution.solve_step
        real_at, real_run = LoadModel.at, cohesim.cli.run

        def minimize(*args, **kwargs):
            out = real_minimize(*args, **kwargs)
            post.append({"frozen": 0, "branches": 0, "value_slope": 0, "open": True})
            return out

        def solve_step(*args, **kwargs):
            if post:
                post[-1]["open"] = False
            return real_solve(*args, **kwargs)

        def at(loads, t):
            loads_at.append(t)
            return real_at(loads, t)

        def run_(*args, **kwargs):
            records.append(real_run(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(cohesim.cli, "run", run_)
        monkeypatch.setattr(step_module, "_minimize", minimize)
        monkeypatch.setattr(evolution, "solve_step", solve_step)
        monkeypatch.setattr(LoadModel, "at", at)
        monkeypatch.setattr(CohesiveLaw, "frozen", counting("frozen", CohesiveLaw.frozen))
        for name in ("branches", "value_slope"):
            owner = FrozenHistory if name == "branches" else PrototypeEnvelope
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        doc = {
            "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 8, "n_y": 4},
            "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
            "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 0.2},
            "loads": {"bulk": "100 * t * sin(pi * x) * y"},
            "time": {"T": 1.0, "n": 40},
            "initial": {},
            "regularization": {"eps_bar": 0.001},
            "output": {"snapshot_stride": 10, "vtk": False},
        }
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        xis = records[0].xis
        grown = [int(not same_bits(xis[k], xis[k - 1])) for k in range(1, 41)]
        assert 0 < sum(grown) < 40       # both kinds of step occur
        assert len(post) == 40
        for counts, new in zip(post, grown):
            assert counts["frozen"] == counts["value_slope"] == new
            assert counts["branches"] == 0
        assert loads_at == [0.0] + [k * (1.0 / 40) for k in range(1, 41)]

    def test_cli_step_with_one_newton_direction_evaluates_the_law_twice(self, monkeypatch,
                                                                        tmp_path):
        # warm-started from the extrapolated multipliers, a step that converges
        # in one Newton direction evaluates its start and the Newton point, one
        # law pass (branches(), which evaluate() makes too) each
        per_step = []          # per step, (law passes, directions, iterations)
        counts = {"branches": 0, "direction": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        real_solve = evolution.solve_step

        def solve_step(*args, **kwargs):
            counts.update(branches=0, direction=0)
            res = real_solve(*args, **kwargs)
            per_step.append((counts["branches"], counts["direction"], res.newton_iters))
            return res

        monkeypatch.setattr(evolution, "solve_step", solve_step)
        monkeypatch.setattr(FrozenHistory, "branches",
                            counting("branches", FrozenHistory.branches))
        monkeypatch.setattr(step_module.StepWorkspace, "newton_direction",
                            counting("direction", step_module.StepWorkspace.newton_direction))
        assert main(["run", str(SCENARIOS / "standard_ramp.json"), "--out",
                     str(tmp_path / "out")]) == 0
        assert len(per_step) == 200
        one = [evaluations for evaluations, directions, iters in per_step
               if directions == iters == 1]
        assert len(one) >= 0.9 * len(per_step)
        assert one == [2] * len(one)
        # every direction makes one more trial point at least
        assert all(evaluations >= 1 + directions for evaluations, directions, _ in per_step)

    def test_newton_work_of_the_shipped_scenarios(self):
        # the warm start from the extrapolated multipliers makes no scenario
        # take more Newton iterations than the start from the tractions at the
        # second-order predicted jumps did (those counts are the bounds; four
        # scenarios sit exactly on theirs)
        bounds = {"standard_ramp": 202, "unloading_tent": 200, "study_tau": 842,
                  "study_eps": 470, "regularity_ramp": 20, "rest": 0}
        for name, bound in bounds.items():
            path = SCENARIOS / f"{name}.json"
            if name.startswith("study"):
                configs = [cfg for _, _, cfg in _study_levels(load_study_file(path))]
            else:
                configs = [load_scenario_file(path)]
            iters = sum(int(run(cfg.scenario, snapshot_stride=cfg.snapshot_stride)
                            .newton_iters.sum()) for cfg in configs)
            assert iters <= bound, name

    def test_each_step_freezes_the_history_once(self, monkeypatch):
        # a step starts from the frozen history its predecessor's post-step
        # pass handed on, which is a new one only when the max-update grew a
        # pair, so each history is frozen once: a run freezes row 0's and one
        # at exactly the steps whose xis row differs from the previous one
        frozen = []
        real = CohesiveLaw.frozen

        def counted(law, xi):
            frozen.append(xi)
            return real(law, xi)

        monkeypatch.setattr(CohesiveLaw, "frozen", counted)
        ref = run(unloading_tent(n=20, n_x=8, n_y=4))
        rows = [0] + [k for k in range(1, 21) if not same_bits(ref.xis[k], ref.xis[k - 1])]
        assert 1 < len(rows) < 21        # the tent loads, then unloads
        assert len(frozen) == len(rows)
        assert all(same_bits(xi, ref.xis[k]) for k, xi in zip(rows, frozen))

    def test_rounding_on_dirichlet_nodes_of_u0_leaves_the_steps_unchanged(self):
        sc = mild_ramp(n=10)
        ref = run(sc)
        u0 = sc.u0.copy()
        u0[sc.mesh.dirichlet_nodes[::3]] = 1e-13
        rec = run(Scenario(sc.mesh, sc.materials, sc.law, sc.loads, sc.T, sc.n, u0=u0,
                           v0=sc.v0, xi0=sc.xi0, eps_bar=sc.eps_bar))
        for k in range(1, sc.n + 1):
            assert same_bits(rec.us[k], ref.us[k])
            assert not rec.us[k][sc.mesh.dirichlet_nodes].any()

    def test_rounding_on_dirichlet_nodes_of_the_initial_data_is_not_recorded(self):
        # the step table includes the residual and traction columns that the
        # traction audit reads
        sc = mild_ramp(n=10)
        dnodes = sc.mesh.dirichlet_nodes
        u0, v0 = sc.u0.copy(), sc.v0.copy()
        u0[dnodes[::3]] = v0[dnodes[::3]] = 1e-13
        rounded = Scenario(sc.mesh, sc.materials, sc.law, sc.loads, sc.T, sc.n, u0=u0,
                           v0=v0, xi0=sc.xi0, eps_bar=sc.eps_bar)
        ref, rec = run(sc), run(rounded)
        assert not rec.vs[1][dnodes].any() and rec.residual[1:].any()
        assert rec.steps.tobytes() == ref.steps.tobytes()
        for a, b in ((rec.us[0], ref.us[0]), (rec.vs[0], ref.vs[0]), (rec.xis[0], ref.xis[0])):
            assert same_bits(a, b)

    def test_step_failure_attaches_partial_trajectory(self, monkeypatch):
        calls = {"k": 0}
        real = evolution.solve_step

        def flaky(prob, tol=1e-10):
            calls["k"] += 1
            if calls["k"] >= 4:
                raise StepSolverError("forced failure", u_last=prob.u_prev,
                                      grad_norm=1.0)
            return real(prob, tol=tol)

        monkeypatch.setattr(evolution, "solve_step", flaky)
        with pytest.raises(EvolutionError) as err:
            run(mild_ramp(n=10))
        assert err.value.step == 4
        assert err.value.partial is not None
        partial = err.value.partial
        assert partial.ts.shape[0] == 4  # steps 0..3 retained
        names = partial.steps.dtype.names
        assert {"xis", "jumps", "newton_iters", "admissibility", "complementarity", "slope",
                "xi_monotone", "v_h1", "a_l2"} <= set(names)
        for name in names:
            assert getattr(partial, name).shape[0] == 4, name
        assert partial.xis.shape == partial.jumps.shape == (4, partial.ops.mesh.n_pairs)
        led, rep = energy_ledger(partial), kkt_report(partial)
        for column in (led.ts, led.E, led.R, led.R_split, rep.admissibility,
                       rep.complementarity, rep.slope, rep.xi_monotone):
            assert column.shape == (4,)


    def test_failed_run_keeps_the_rows_of_the_run_without_the_failure(self, monkeypatch):
        # the columns filled after the loop (KKT, D_cum, P_cum) are filled on
        # the partial table too, bit for bit as in the whole run
        scenario = unloading_tent(n=20, n_x=8, n_y=4)
        ref = run(scenario)
        real = evolution.solve_step
        calls = {"k": 0}

        def failing(prob, tol=1e-10):
            calls["k"] += 1
            if calls["k"] == 5:
                raise StepSolverError("forced failure", u_last=prob.u_prev, grad_norm=1.0)
            return real(prob, tol=tol)

        monkeypatch.setattr(evolution, "solve_step", failing)
        with pytest.raises(EvolutionError) as err:
            run(scenario)
        partial = err.value.partial.steps
        assert err.value.step == 5 and partial.size == 5
        for name in partial.dtype.names:
            assert partial[name].tobytes() == ref.steps[name][:5].tobytes(), name
        assert np.any(ref.steps["D_cum"][1:5] > 0.0) and np.any(ref.steps["P_cum"][1:5] != 0.0)

    def test_step_table_columns_equal_a_row_by_row_reference(self):
        # a table with violations of every kind, signed zeros and a partial
        # table of row 0 alone, against one row at a time
        rng = np.random.default_rng(4)
        steps = np.zeros(40, dtype=evolution.step_dtype(7))
        xis = np.abs(rng.normal(size=(40, 7))).cumsum(axis=0)
        xis[rng.random((40, 7)) < 0.2] = 0.0
        steps["xis"] = xis
        steps["jumps"] = xis * rng.choice([-1.01, -1.0, -0.5, 0.5, 1.0, 1.01], size=(40, 7))
        steps["D_cum"], steps["P_cum"] = rng.normal(size=(2, 40))
        for table in (steps, steps[:1]):
            out = evolution._finish_step_table(table.copy())
            ref = table.copy()
            for k in range(1, ref.size):
                xi, xi_prev, w, w_prev = (ref["xis"][k], ref["xis"][k - 1], ref["jumps"][k],
                                          ref["jumps"][k - 1])
                gap, growth = np.abs(w) - xi, xi - xi_prev
                ref["admissibility"][k] = max(0.0, gap.max())
                ref["complementarity"][k] = np.abs(growth * gap).max()
                ref["slope"][k] = max(0.0, (np.abs(growth) - np.abs(w - w_prev)).max())
                ref["xi_monotone"][k] = max(0.0, (xi_prev - xi).max())
                ref["D_cum"][k] += ref["D_cum"][k - 1]
                ref["P_cum"][k] += ref["P_cum"][k - 1]
            for name in ref.dtype.names:
                assert out[name].tobytes() == ref[name].tobytes(), name
        assert out.size == 1
        assert all(evolution._finish_step_table(steps.copy())[name][1:].max() > 0.0
                   for name in evolution.KKT_COLUMNS)


class TestSelfConvergence:
    def test_final_state_is_first_order_in_tau(self):
        # elastic-floor regime (no opening): smooth trajectory
        sols = {}
        for n in (50, 100, 200, 400):
            sc = mild_ramp(n=n, amplitude=10.0)
            rec = run(sc, snapshot_stride=n)
            sols[n] = (rec.us[n], rec.ops)
        diffs = []
        for n in (50, 100, 200):
            u_c, ops = sols[n]
            u_f, _ = sols[2 * n]
            diffs.append(ops.l2_norm(u_c - u_f))
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        assert all(0.3 <= r <= 0.8 for r in ratios), ratios


class TestRegularizeInitialData:
    def test_floor_applies_where_xi0_small(self):
        sc = rest_scenario(eps_bar=0.01)
        _, _, xi_eff = regularize_initial_data(sc)
        assert np.all(xi_eff == 0.01)

    def test_floor_inert_where_xi0_large(self):
        sc = small_ramp(n=4, n_x=4, n_y=2, xi0=0.5, eps_bar=1e-3)
        _, _, xi_eff = regularize_initial_data(sc)
        assert np.array_equal(xi_eff, sc.xi0)

    def test_regularity_recompute_is_zero_for_symmetric_zero_load(self):
        sc = small_ramp(n=4, n_x=4, n_y=2, regularity_mode=True)
        u0_eff, v0_eff, xi_eff = regularize_initial_data(sc)
        # f(0) = 0, v0 = w0 = 0: the unique minimizer of the even energy is 0
        assert np.allclose(u0_eff, 0.0, atol=1e-12)
        assert np.all(v0_eff == 0.0)
        assert np.all(xi_eff == sc.eps_bar)

    def test_stationarity_gate_rejects_a_displaced_static_minimizer(self, monkeypatch):
        # f(0) != 0 and w0 != 0, so the gate weighs a nonzero residual
        sc = load_scenario_file(SCENARIOS / "regularity_ramp.json").scenario
        u0_eff, _, _ = regularize_initial_data(sc)
        assert np.abs(u0_eff).max() > 0.0
        node = sc.mesh.free_nodes[0]
        minimize = step_module._minimize

        def displaced(*args, **kwargs):
            u, lam, iters, rnorm = minimize(*args, **kwargs)
            u = u.copy()
            u[node] += 1e-6
            return u, lam, iters, rnorm

        monkeypatch.setattr(step_module, "_minimize", displaced)
        with pytest.raises(EvolutionError, match="not stationary"):
            regularize_initial_data(sc)

    def test_missing_w0_rejected(self):
        sc = small_ramp(n=4, n_x=4, n_y=2)
        with pytest.raises(ValueError, match="w0"):
            Scenario(sc.mesh, sc.materials, sc.law, sc.loads, sc.T, sc.n,
                     sc.u0, sc.v0, sc.xi0, sc.eps_bar,
                     regularity_mode=True, w0=None)

    def test_jumping_initial_velocity_rejected_in_regularity_mode(self):
        sc = small_ramp(n=4, n_x=4, n_y=2)
        v0 = np.zeros(sc.mesh.n_nodes)
        v0[sc.mesh.interface_pairs[1, 0]] = 0.1  # plus side only
        with pytest.raises(ValueError, match="jump-free"):
            Scenario(sc.mesh, sc.materials, sc.law, sc.loads, sc.T, sc.n,
                     sc.u0, v0, sc.xi0, sc.eps_bar,
                     regularity_mode=True, w0=np.zeros(sc.mesh.n_nodes))

    def test_inadmissible_initial_opening_rejected(self):
        sc = small_ramp(n=4, n_x=4, n_y=2)
        u0 = np.zeros(sc.mesh.n_nodes)
        u0[sc.mesh.interface_pairs[1, 0]] = 0.5
        with pytest.raises(ValueError, match=r"\[u0\]"):
            Scenario(sc.mesh, sc.materials, sc.law, sc.loads, sc.T, sc.n,
                     u0, sc.v0, sc.xi0, sc.eps_bar)

    def test_loads_that_end_before_the_horizon_rejected(self):
        # a run would otherwise hold the last load for the remaining steps
        sc = small_ramp(n=4, n_x=4, n_y=2)
        loads = LoadModel.from_functions(sc.mesh, 0.5 * sc.T, bulk=lambda x, y, t: t * y)
        with pytest.raises(ValueError, match=r"loads end at t = 0\.5, before the time horizon"):
            Scenario(sc.mesh, sc.materials, sc.law, loads, sc.T, sc.n,
                     sc.u0, sc.v0, sc.xi0, sc.eps_bar)


class TestEpsContinuation:
    def test_with_eps_replaces_only_the_floor_and_validates(self):
        sc = mild_ramp(n=10)
        other = sc.with_eps(0.05)
        assert other.eps_bar == 0.05 and sc.eps_bar != 0.05
        assert other.mesh is sc.mesh and other.loads is sc.loads and other.n == sc.n
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps_bar"):
                sc.with_eps(bad)

    @staticmethod
    def eps_study(tmp_path, eps_list):
        doc = {"kind": "eps_continuation", "eps_list": eps_list,
               "base": {"mesh": {"kind": "rectangle", "L": 1.0, "n_x": 4, "n_y": 2},
                        "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
                        "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 1.0},
                        "loads": {"bulk": "20 * t * sin(pi * x) * y"},
                        "time": {"T": 1.0, "n": 4},
                        "initial": {}, "regularization": {"eps_bar": 1e-3}}}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        return ["study", str(study), "--out", str(tmp_path / "out")]

    def test_solver_failure_is_recorded(self, tmp_path, monkeypatch, capsys):
        real_run = cohesim.cli.run

        def run_failing_first(scenario, **kwargs):
            if scenario.eps_bar == 1e-1:
                raise ConvexityError("not strictly convex")
            return real_run(scenario, **kwargs)

        monkeypatch.setattr(cohesim.cli, "run", run_failing_first)
        assert main(self.eps_study(tmp_path, [1e-1, 1e-2, 1e-3])) == 3
        err = capsys.readouterr().err
        assert "level_00: solver failure before step 1: not strictly convex" in err
        rows = [line.split(",") for line in
                (tmp_path / "out" / "study.csv").read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["failed", "ok", "ok"]
        assert rows[0][5] == "" and rows[1][5] != ""

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        def broken_run(scenario, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(cohesim.cli, "run", broken_run)
        with pytest.raises(TypeError, match="unexpected argument"):
            main(self.eps_study(tmp_path, [1e-1, 1e-2]))


class TestTrajectoryDistance:
    """Bitwise agreement with the loop each study kind used to run."""

    def test_tau_levels_matched_by_time(self):
        coarse = run(mild_ramp(n=10), snapshot_stride=1)
        fine = run(mild_ramp(n=20), snapshot_stride=2)
        d = 0.0
        for k in coarse.snapshot_steps:
            kf = int(round(coarse.ts[k] / fine.tau))
            if kf in fine.us:
                d = max(d, coarse.ops.l2_norm(coarse.us[k] - fine.us[kf]))
        assert d > 0.0 and same_bits(trajectory_distance(coarse, fine), d)

    def test_h_levels_through_node_injection(self):
        coarse = run(mild_ramp(n=10, n_x=4, n_y=2), snapshot_stride=1)
        fine = run(mild_ramp(n=10, n_x=8, n_y=4), snapshot_stride=1)
        injection = _node_injection(coarse.ops.mesh, fine.ops.mesh)
        d = 0.0
        for k in coarse.snapshot_steps:
            if k in fine.us:
                d = max(d, coarse.ops.l2_norm(coarse.us[k] - fine.us[k][injection]))
        assert d > 0.0 and same_bits(trajectory_distance(coarse, fine, injection), d)

    def test_eps_levels_over_every_step(self):
        sc = mild_ramp(n=10)
        ra = run(sc.with_eps(1e-1), snapshot_stride=1)
        rb = run(sc.with_eps(1e-2), snapshot_stride=1)
        d = 0.0
        for k in range(ra.n_steps + 1):
            d = max(d, ra.ops.l2_norm(ra.us[k] - rb.us[k]))
        assert d > 0.0 and same_bits(trajectory_distance(ra, rb), d)
