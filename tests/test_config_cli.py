"""Expression grammar, scenario schema validation, CLI exit codes, CSV
determinism and golden headers."""

import gc
import json
import os
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import cohesim.cli
import cohesim.config
from cohesim.cli import main
from cohesim.config import ConfigError, parse_scenario, parse_study
from cohesim.expressions import ExpressionError, compile_expression

from oracles import max_interior, read_vtk_frame

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


@pytest.fixture
def records(monkeypatch):
    """The records that ``cohesim.cli.run`` returns, in order."""
    records, real_run = [], cohesim.cli.run

    def recording_run(*args, **kwargs):
        records.append(real_run(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(cohesim.cli, "run", recording_run)
    return records


def base_doc(**overrides):
    doc = {
        "mesh": {"kind": "rectangle", "L": 1.0, "n_x": 4, "n_y": 2},
        "materials": {"rho": 1.0, "mu": 1.0, "eta": 1.0},
        "law": {"kind": "prototype", "g_c": 1.0, "xi_c": 1.0},
        "loads": {"bulk": "20 * t * sin(pi * x) * y"},
        "time": {"T": 1.0, "n": 10},
        "initial": {},
        "regularization": {"eps_bar": 0.001},
    }
    doc.update(overrides)
    return doc


class TestExpressions:
    def test_arithmetic_and_functions(self):
        f = compile_expression("sin(pi * x) + max(y, 0) - abs(t) ** 2")
        x, y, t = 0.5, -1.0, 2.0
        assert f(x=x, y=y, t=t) == pytest.approx(np.sin(np.pi * 0.5) + 0.0 - 4.0)

    def test_vectorized_broadcast(self):
        f = compile_expression("x * y + t")
        x = np.array([1.0, 2.0])
        out = f(x=x, y=3.0, t=1.0)
        assert np.allclose(out, [4.0, 7.0])

    def test_constant_broadcasts(self):
        f = compile_expression(2.5)
        assert np.allclose(f(x=np.zeros(3), y=np.zeros(3)), 2.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExpressionError, match="unknown name"):
            compile_expression("z + 1")

    def test_calls_outside_whitelist_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')")
        with pytest.raises(ExpressionError):
            compile_expression("sqrt(x)")

    @pytest.mark.parametrize("literal", ["True", "False"])
    def test_boolean_literals_rejected(self, literal):
        # Python's bool is an int, but True * x is no load
        with pytest.raises(ExpressionError, match=f"literal {literal} is not a number"):
            compile_expression(f"{literal} * x")

    def test_attribute_access_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("x.real")

    def test_time_dependent_expression_equals_plain_numpy(self):
        source = ("25 * min(t / 0.4, max(1 + (t - 0.4) * -3, 0.1 + (t - 0.7) * 0.5))"
                  " * sin(pi * x) * y + exp(t) * cos(x * y)")
        f = compile_expression(source)
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, 1.0, 257), rng.uniform(-1.0, 1.0, 257)

        def plain(x, y, t):
            return (25 * min(t / 0.4, max(1 + (t - 0.4) * -3, 0.1 + (t - 0.7) * 0.5))
                    * np.sin(np.pi * x) * y + np.exp(t) * np.cos(x * y))

        for t in np.linspace(0.0, 1.0, 7):
            out = f(x=x, y=y, t=t)
            assert np.array_equal(out, plain(x, y, t))
            # equal values in new objects give the same bits
            assert np.array_equal(out, f(x=x.copy(), y=y.copy(), t=t))

    def test_in_place_changes_of_the_variables_are_seen(self):
        f = compile_expression("sin(pi * x) * y + cos(x * t)")
        x, y = np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9)
        f(x, y, 0.5)
        x += 0.3
        assert np.array_equal(f(x, y, 0.5), np.sin(np.pi * x) * y + np.cos(x * 0.5))

    def test_time_free_root_is_returned_as_a_copy(self):
        f = compile_expression("sin(pi * x) * y")
        x, y = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)
        a, b = f(x=x, y=y, t=0.0), f(x=x, y=y, t=1.0)
        assert np.array_equal(a, np.sin(np.pi * x) * y) and np.array_equal(a, b)
        assert not np.shares_memory(a, b)
        a[...] = 0.0
        assert np.array_equal(f(x=x, y=y, t=2.0), b)


class TestScenarioSchema:
    def test_valid_document_builds(self):
        cfg = parse_scenario(base_doc())
        assert cfg.scenario.n == 10
        assert cfg.scenario.mesh.n_pairs == 5

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section 'extra'"):
            parse_scenario(base_doc(extra={}))

    def test_unknown_key_rejected(self):
        doc = base_doc()
        doc["time"]["dt"] = 0.1
        with pytest.raises(ConfigError, match="time.dt"):
            parse_scenario(doc)

    def test_nonpositive_parameter_rejected(self):
        doc = base_doc()
        doc["materials"]["mu"] = -1.0
        with pytest.raises(ConfigError, match="materials.mu"):
            parse_scenario(doc)

    def test_law_violation_names_hypothesis(self):
        doc = base_doc()
        doc["law"] = {"kind": "tabulated", "w": [0.0, 0.5, 1.0],
                      "psi": [0.3, 0.8, 1.0], "dpsi": [1.2, 0.7, 0.2]}
        with pytest.raises(ConfigError, match=r"\(H1\) violated"):
            parse_scenario(doc)

    def test_bad_expression_names_field(self):
        doc = base_doc()
        doc["loads"]["bulk"] = "sin(x"
        with pytest.raises(ConfigError, match="loads.bulk"):
            parse_scenario(doc)

    def test_initial_fields_evaluated(self):
        doc = base_doc()
        doc["initial"] = {"xi0": "0.5 + 0 * x"}
        cfg = parse_scenario(doc)
        assert np.all(cfg.scenario.xi0 == 0.5)

    def test_law_d2psi_rejected_as_unknown_key(self):
        doc = base_doc()
        doc["law"] = {"kind": "tabulated", "w": [0.0, 0.5, 1.0], "psi": [0.0, 0.8, 1.0],
                      "dpsi": [2.0, 0.7, 0.0], "d2psi": [-2.0, -2.0, -2.0]}
        with pytest.raises(ConfigError, match="unknown key 'law.d2psi'"):
            parse_scenario(doc)

    def test_shipped_loads_split_into_separable_terms(self):
        # each term is then assembled once per run, not once per sample
        for path in sorted(SCENARIOS.glob("*.json")):
            doc = json.loads(path.read_text())
            loads = doc.get("base", doc)["loads"]
            for key in ("bulk", "surface"):
                if key in loads:
                    assert compile_expression(loads[key]).terms is not None, (path.name, key)

    def test_study_requires_levels(self):
        with pytest.raises(ConfigError, match="levels"):
            parse_study({"kind": "tau_refinement", "base": base_doc()})

    def test_study_eps_list_must_decrease(self):
        with pytest.raises(ConfigError, match="decreasing"):
            parse_study({"kind": "eps_continuation", "eps_list": [0.1, 0.2],
                         "base": base_doc()})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_study_eps_list_must_be_finite(self, bad):
        # a NaN floor passes both the `<= 0` and the decreasing test
        with pytest.raises(ConfigError, match="finite positive"):
            parse_study({"kind": "eps_continuation", "eps_list": [0.1, bad],
                         "base": base_doc()})

    @pytest.mark.parametrize("kind, key, value", [
        ("single", "levels", 2),
        ("single", "eps_list", [0.1, 0.01]),
        ("tau_refinement", "eps_list", "junk"),
        ("h_refinement", "eps_list", [0.1, 0.01]),
        ("eps_continuation", "levels", 5),
    ])
    def test_study_key_of_another_kind_rejected(self, kind, key, value):
        doc = {"kind": kind, "base": base_doc(), key: value}
        if kind.endswith("_refinement"):
            doc["levels"] = 2
        if kind == "eps_continuation":
            doc["eps_list"] = [0.1, 0.01]
        with pytest.raises(ConfigError, match=f"unknown key '{key}' for kind '{kind}'"):
            parse_study(doc)


class TestCli:
    def test_run_rest_scenario(self, tmp_path, capsys):
        code = main(["run", str(SCENARIOS / "rest.json"), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max_energy_residual" in out and "max_kkt_violation" in out
        energies = (tmp_path / "energies.csv").read_text().splitlines()
        assert energies[0] == "step,t,E,K,Psi,Psi_s,Psi_d,D_cum,P_cum,R,R_split"
        assert len(energies) == 22  # header + n + 1 rows
        kkt = (tmp_path / "kkt.csv").read_text().splitlines()
        assert kkt[0] == "step,t,admissibility,complementarity,slope,xi_monotone"
        tractions = (tmp_path / "tractions.csv").read_text().splitlines()
        assert tractions[0] == ("step,t,max_abs_sigma_plus,max_abs_sigma_minus,"
                                "max_transmission_defect,max_cohesive_defect,"
                                "traction_bound")
        # all-zero energy columns in the rest state
        for line in energies[1:]:
            cols = line.split(",")
            assert float(cols[2]) == 0.0 and float(cols[3]) == 0.0

    def test_run_is_deterministic(self, tmp_path):
        # a loaded run with VTK frames, repeated in one process, writes the
        # same files byte for byte
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = str(SCENARIOS / "standard_ramp.json")
        assert main(["run", cfg, "--out", str(out_a)]) == 0
        assert main(["run", cfg, "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert sorted(p.name for p in out_b.iterdir()) == names
        assert len(names) == 24 and "fields_0020.vtk" in names     # 3 CSVs, 21 frames
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_run_writes_vtk_frames(self, tmp_path, records):
        doc = base_doc(output={"snapshot_stride": 3, "vtk": True})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        # the document's stride, and one frame per snapshot step
        (record,) = records
        assert record.snapshot_steps == [0, 3, 6, 9, 10]
        frames = sorted(out.glob("fields_*.vtk"))
        assert len(frames) == 5
        for frame, k in zip(frames, record.snapshot_steps):
            assert bits(read_vtk_frame(frame)["fields"]["u"]) == bits(record.us[k])
        head = frames[0].read_bytes().split(b"\n", 4)[:4]
        assert head == [b"# vtk DataFile Version 2.0", b"cohesim fields", b"BINARY",
                        b"DATASET UNSTRUCTURED_GRID"]

    def test_failed_run_keeps_the_frames_it_reached(self, tmp_path, capsys, monkeypatch):
        # the standard ramp (stride 10) stopped at step 142 writes, from its
        # partial record, the frames of steps 0, 10, ..., 140 and the CSVs of
        # steps 0..141 (tractions.csv of steps 1..141), as the whole run
        # writes their rows; stopped at step 1, it writes the CSVs of step 0
        import cohesim.evolution
        from cohesim.evolution import EvolutionError
        from cohesim.step import StepSolverError

        solve_step, steps, fail_at = cohesim.evolution.solve_step, [], None

        def failing_at(problem, **kwargs):
            steps.append(None)
            if len(steps) == fail_at:
                raise StepSolverError("Newton stalled")
            return solve_step(problem, **kwargs)

        run, partials = cohesim.cli.run, []

        def keeping_partial(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except EvolutionError as exc:
                partials.append(exc.partial)
                raise

        assert main(["run", str(SCENARIOS / "standard_ramp.json"), "--out",
                     str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cohesim.evolution, "solve_step", failing_at)
        monkeypatch.setattr(cohesim.cli, "run", keeping_partial)
        csvs = ["energies.csv", "kkt.csv", "tractions.csv"]
        for fail_at, frames in ((142, 15), (1, 1)):
            steps.clear()
            out = tmp_path / f"failed_at_{fail_at}"
            assert main(["run", str(SCENARIOS / "standard_ramp.json"), "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"solver failure at step {fail_at}: Newton stalled\n"
            partial = partials[-1]
            assert partial.snapshot_steps == list(range(0, fail_at, 10))
            assert sorted(p.name for p in out.iterdir()) == sorted(
                csvs + [f"fields_{i:04d}.vtk" for i in range(frames)])
            for name, rows in zip(csvs, (fail_at, fail_at, fail_at - 1)):
                lines = (out / name).read_text().splitlines()
                assert lines == (tmp_path / "whole" / name).read_text().splitlines()[:rows + 1]
            kkt = np.loadtxt(out / "kkt.csv", delimiter=",", skiprows=1, ndmin=2)
            assert kkt.shape == (fail_at, 6) and not kkt[:, 2:].any()
        partial = partials[0]
        pairs = partial.ops.mesh.interface_pairs
        others = np.setdiff1d(np.arange(partial.ops.n_nodes), pairs)
        out = tmp_path / "failed_at_142"
        for i, k in enumerate(partial.snapshot_steps):
            fields = read_vtk_frame(out / f"fields_{i:04d}.vtk")["fields"]
            assert list(fields) == ["u", "v", "xi"]
            assert bits(fields["u"]) == bits(partial.us[k])
            assert bits(fields["v"]) == bits(partial.vs[k])
            for side in (0, 1):
                assert bits(fields["xi"][pairs[:, side]]) == bits(partial.xis[k])
            assert not fields["xi"][others].any()

    def test_invalid_law_exits_2_naming_hypothesis(self, tmp_path, capsys):
        doc = base_doc()
        doc["law"] = {"kind": "tabulated", "w": [0.0, 0.5, 1.0],
                      "psi": [0.3, 0.8, 1.0], "dpsi": [1.2, 0.7, 0.2]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "(H1) violated" in capsys.readouterr().err

    @pytest.mark.parametrize("section, at, value, array", [
        ("interface_pairs", (0, 1), 1000000, "interface_pairs"),
        ("interface_pairs", (1, 0), -1, "interface_pairs"),
        ("dirichlet", (0,), -1, "dirichlet_nodes"),
        ("dirichlet", (2,), 22, "dirichlet_nodes"),
        ("neumann_edges", (1, 1), 22, "neumann_edges"),
        ("neumann_edges", (0, 0), -3, "neumann_edges"),
    ])
    def test_mesh_index_out_of_range_exits_2_naming_the_array(self, section, at, value, array,
                                                             tmp_path, capsys):
        from cohesim.mesh import build_rectangle_mesh
        from oracles import save_mesh

        # 22 nodes: each value is out of range for the index array it is put in
        path = tmp_path / "mesh.json"
        save_mesh(build_rectangle_mesh(3.0, 3, 1), path)
        mesh = json.loads(path.read_text())
        entry = mesh[section]
        for i in at[:-1]:
            entry = entry[i]
        entry[at[-1]] = value
        path.write_text(json.dumps(mesh))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(mesh={"path": str(path)})))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: 'mesh.path': {array} index out of range\n"

    @staticmethod
    def run_mesh_file(tmp_path, capsys, edit):
        """``cohesim run`` on a scenario whose mesh file is the 3x1 rectangle's
        as ``edit`` leaves its document, or the text ``edit`` returns; gives
        the exit code and the standard error."""
        from cohesim.mesh import build_rectangle_mesh
        from oracles import save_mesh

        path = tmp_path / "mesh.json"
        save_mesh(build_rectangle_mesh(3.0, 3, 1), path)
        mesh = json.loads(path.read_text())
        text = edit(mesh)
        path.write_text(json.dumps(mesh) if text is None else text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc(mesh={"path": str(path)})))
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        return code, err

    @pytest.mark.parametrize("section, at, value, array", [
        ("interface_pairs", (0, 0), 0.9, "interface_pairs"),
        ("dirichlet", (0,), 4.7, "dirichlet_nodes"),
        ("triangles", (0, 1), 1.5, "triangles"),
        ("triangles", (0, 3), 0.5, "triangles"),
    ])
    def test_fractional_mesh_index_exits_2_naming_the_array(self, section, at, value, array,
                                                            tmp_path, capsys):
        def edit(mesh):
            entry = mesh[section]
            for i in at[:-1]:
                entry = entry[i]
            entry[at[-1]] = value

        code, err = self.run_mesh_file(tmp_path, capsys, edit)
        assert (code, err) == (2, f"config error: 'mesh.path': {array} must hold whole numbers\n")

    @pytest.mark.parametrize("section, at, array", [
        ("interface_pairs", (0, 0), "interface_pairs"),
        ("dirichlet", (0,), "dirichlet_nodes"),
        ("triangles", (0, 1), "triangles"),
        ("triangles", (0, 3), "triangles"),
        ("neumann_edges", (1, 1), "neumann_edges"),
    ])
    def test_boolean_mesh_index_exits_2_naming_the_array(self, section, at, array, tmp_path,
                                                         capsys):
        # a JSON true among the integers is no index 1
        def edit(mesh):
            entry = mesh[section]
            for i in at[:-1]:
                entry = entry[i]
            entry[at[-1]] = True

        code, err = self.run_mesh_file(tmp_path, capsys, edit)
        assert (code, err) == (2, f"config error: 'mesh.path': {array} must hold whole numbers\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda mesh: json.dumps(mesh)[:-1], "invalid JSON at line 1: "),
        (lambda mesh: json.dumps(list(mesh)), "a mesh file must hold a JSON object"),
        (lambda mesh: mesh["nodes"][2].__setitem__(1, "0.5"), "nodes must hold numbers"),
        (lambda mesh: mesh.update(interface_pairs=sum(mesh["interface_pairs"], [])),
         "interface_pairs must be an array of shape (n, 2)"),
        (lambda mesh: mesh["neumann_edges"].append([4]),
         "neumann_edges must be an array of shape (n, 2)"),
        (lambda mesh: mesh.update(triangles=[row[:3] for row in mesh["triangles"]]),
         "triangles must be an array of shape (n, 4)"),
        (lambda mesh: mesh["nodes"][8].__setitem__(0, float("nan")),
         "node coordinates must be finite"),
        (lambda mesh: mesh["nodes"][8].__setitem__(0, 1e200),
         "node coordinates overflow the mesh diameter or a triangle area"),
    ], ids=["truncated", "list", "text_coordinate", "flat_pairs", "short_neumann_row",
            "three_column_triangles", "nan_coordinate", "huge_coordinate"])
    def test_malformed_mesh_file_exits_2_with_one_line(self, edit, message, tmp_path, capsys):
        code, err = self.run_mesh_file(tmp_path, capsys, edit)
        assert code == 2 and err.startswith(f"config error: 'mesh.path': {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section, value, message", [
        ("mesh", None, "missing section 'mesh'"),
        ("materials", [1.0, 1.0, 1.0], "section 'materials' must be an object"),
        ("law", {"g_c": 1.0, "xi_c": 1.0}, "'law.kind' must be 'prototype' or 'tabulated'"),
        ("law", "prototype", "section 'law' must be an object"),
        ("mesh", {"path": 3}, "'mesh.path' must be a string"),
    ])
    def test_missing_or_malformed_section_exits_2(self, section, value, message, tmp_path,
                                                  capsys):
        doc = base_doc()
        if value is None:
            del doc[section]
        else:
            doc[section] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_solver_failure_exits_3_with_step(self, tmp_path, capsys):
        doc = base_doc()
        doc["law"] = {"kind": "prototype", "g_c": 1.0, "xi_c": 0.2}  # beta = 50
        doc["time"] = {"T": 1.0, "n": 10}  # tau far too large for the guard
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        # the guard refuses before any step runs, and names the step margin
        from cohesim.assembly import assemble
        from cohesim.step import StepWorkspace

        scenario = parse_scenario(doc).scenario
        ops = assemble(scenario.mesh, scenario.materials)
        margin = StepWorkspace(ops, scenario.tau).margin(scenario.law.beta)
        assert margin <= 0.0
        assert capsys.readouterr().err == (
            "solver failure before step 1: incremental functional not strictly convex "
            f"(step margin 1 - beta*lambda_max = {margin!r}); reduce the time step tau\n")

    def test_initial_data_failure_exits_3_before_step_1(self, tmp_path, capsys, monkeypatch):
        # an EvolutionError raised before the time loop carries no step
        from cohesim.evolution import EvolutionError

        def failing(scenario, **kwargs):
            raise EvolutionError("recomputed initial data are not stationary")

        monkeypatch.setattr(cohesim.cli, "run", failing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_doc()))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "solver failure before step 1: recomputed initial data are not stationary\n")

    @pytest.mark.parametrize("command", ["run", "check-law"])
    def test_study_document_exits_2_naming_the_study_command(self, command, tmp_path, capsys):
        argv = [command, str(SCENARIOS / "study_tau.json")]
        assert main(argv + (["--out", str(tmp_path / "o")] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert "study document" in err and "cohesim study" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["mesh.n_x", "mesh.n_y", "time.n",
                                     "output.snapshot_stride", "levels", "eps_list"])
    def test_json_true_is_not_an_integer(self, key, tmp_path, capsys):
        # Python reads JSON true as a bool, which is an int equal to 1
        if key == "levels":
            command, doc = "study", {"kind": "tau_refinement", "levels": True,
                                     "base": base_doc()}
        elif key == "eps_list":
            command, doc = "study", {"kind": "eps_continuation", "eps_list": [2, True],
                                     "base": base_doc()}
        else:
            command, doc = "run", base_doc(output={})
            section, field = key.split(".")
            doc[section][field] = True
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"kind": ["tau_refinement"]}, "kind"),
        ({"kind": "eps_continuation", "eps_list": 5}, "eps_list"),
    ])
    def test_malformed_study_exits_2(self, doc, key, tmp_path, capsys):
        study = tmp_path / "study.json"
        study.write_text(json.dumps({**doc, "base": base_doc()}))
        assert main(["study", str(study), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode())
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: {cfg}: invalid JSON at line 1: "
                                           "Expecting value\n")

    def test_missing_config_exits_4(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 4

    def test_check_law_missing_config_exits_4(self, tmp_path, capsys):
        assert main(["check-law", str(tmp_path / "nope.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(tmp_path / "nope.json") in err

    @staticmethod
    def probe(command, tmp_path, key, value):
        """``command`` on the standard ramp at 8x4 cells with ``key`` set to
        ``value``; a study runs it as its one level.  Returns the exit code."""
        doc = json.loads((SCENARIOS / "standard_ramp.json").read_text())
        doc["mesh"].update(n_x=8, n_y=4)
        doc["output"] = {}
        section, field = key.split(".")
        doc[section][field] = value
        if command == "study":
            doc = {"kind": "single", "base": doc}
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))  # NaN and inf as the JSON NaN and Infinity
        argv = [command, str(path)]
        if command != "check-law":
            argv += ["--out", str(tmp_path / "o")]
        return main(argv)

    NUMBER_PROBES = [
        ("time.T", float("nan"), "must be a finite positive number"),
        ("materials.rho", float("inf"), "must be a finite positive number"),
        ("law.g_c", float("nan"), "must be a finite positive number"),
        # finite, but tau^2 = (T / 200)^2 overflows
        ("time.T", 1e300, "over 'time.n' gives the time step tau = 5e+297, for which "
                          "tau^2, rho / tau^2 or eta / tau is out of the float range"),
        ("initial.u0", "1e400 * x", "must be finite at every node"),
        ("initial.xi0", "0 * x + 1e400", "must be finite at every node"),
        # numpy refuses a step table this size at once, without touching memory
        ("time.n", 10**12, "asks for a step table of 1000000000001 rows, which does not "
                           "fit in memory"),
    ]

    @pytest.mark.parametrize("command", ["run", "study", "check-law"])
    @pytest.mark.parametrize("key, value, message",
                             [pytest.param(*p, id=f"{p[0]}-{p[1]}") for p in NUMBER_PROBES])
    def test_non_finite_number_exits_2_naming_it(self, command, key, value, message,
                                                 tmp_path, capsys):
        code = self.probe(command, tmp_path, key, value)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"config error: '{key}' {message}\n"

    @pytest.mark.parametrize("command", ["run", "study", "check-law"])
    def test_step_table_beyond_memory_exits_2_naming_time_n(self, command, tmp_path, capsys,
                                                           monkeypatch):
        # numpy refuses the step table of 10**12 + 1 rows at once, without
        # touching memory, before the load is sampled at the step times
        sampled = []
        monkeypatch.setattr(cohesim.config.LoadModel, "from_functions",
                            lambda *args, **kwargs: sampled.append(args))
        code = self.probe(command, tmp_path, "time.n", 10**12)
        assert sampled == []
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("config error: 'time.n' asks for a step table of 1000000000001 rows, "
                       "which does not fit in memory\n")

    @pytest.mark.parametrize("command", ["run", "check-law"])
    @pytest.mark.parametrize("key, bad", [("w", float("nan")), ("psi", "0.8"),
                                          ("dpsi", float("nan")), ("dpsi", [0.7])])
    def test_tabulated_law_entry_not_a_finite_number_exits_2(self, command, key, bad,
                                                             tmp_path, capsys):
        law = {"kind": "tabulated", "w": [0.0, 0.5, 1.0], "psi": [0.0, 0.8, 1.0],
               "dpsi": [2.0, 0.7, 0.0]}
        law[key][1] = bad
        doc = base_doc()
        doc["law"] = law
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--out", str(tmp_path / "o")] if command == "run"
                                       else [])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: 'law.{key}' must be a list of finite numbers\n"

    def test_overflowing_mesh_scale_exits_2_naming_it(self, tmp_path, capsys, recwarn):
        code = self.probe("run", tmp_path, "mesh.scale", 1e308)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("config error: mesh: scale factor 1e+308: node coordinates overflow the "
                       "mesh diameter or a triangle area\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("literal", ["True", "False"])
    def test_boolean_literal_in_a_load_exits_2(self, literal, tmp_path, capsys):
        code = self.probe("run", tmp_path, "loads.bulk", f"{literal} * x")
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"config error: 'loads.bulk': literal {literal} is not a number\n"

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_non_finite_load_at_sample_0_exits_2_naming_it(self, command, tmp_path, capsys,
                                                           recwarn):
        # the time factor 1e308 * 1e308 * t is inf * 0 at t = 0
        code = self.probe(command, tmp_path, "loads.bulk", "1e308 * 1e308 * t")
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: 'loads.bulk' is not finite at t = 0.0\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # 1e200 * t: a finite load whose state overflows in step 1, so step 2's
    # Newton check fails; exp(1000 * t) * y: the first load that overflows is
    # step 142's, at t = 0.71
    @pytest.mark.parametrize("command", ["run", "study"])
    @pytest.mark.parametrize("bulk, step, cause", [
        pytest.param("1e200 * t", 2, "non-finite state", id="1e200 * t-2"),
        pytest.param("exp(1000 * t) * y", 142, "the bulk load is not finite at t = 0.71",
                     id="exp(1000 * t) * y-142")])
    def test_non_finite_state_exits_3_at_its_step(self, command, bulk, step, cause, tmp_path,
                                                  capsys, recwarn):
        code = self.probe(command, tmp_path, "loads.bulk", bulk)
        out, err = capsys.readouterr()
        assert code == 3 and "Traceback" not in err
        if command == "study":
            assert out.startswith("failed: 1 levels")
            assert err.startswith("level_00: ")
            err = err[len("level_00: "):]
        else:
            assert out == ""
        assert err.startswith(f"solver failure at step {step}: {cause}")
        assert err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_ramp_run_row_count(self, tmp_path):
        doc = base_doc()
        doc["time"] = {"T": 1.0, "n": 25}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert len((out / "energies.csv").read_text().splitlines()) == 27
        assert len((out / "tractions.csv").read_text().splitlines()) == 26

    def test_check_law_reports_constants_and_margin(self, capsys):
        assert main(["check-law", str(SCENARIOS / "check_law_small_domain.json")]) == 0
        out = capsys.readouterr().out
        assert "beta = 0.5" in out
        assert "psi_prime_0 = 1.0" in out
        assert "H4 margin" in out and "holds" in out

    def test_check_law_assembles_once(self, capsys, monkeypatch):
        # the trace constant reads the A_unit of the step margin's operators
        import cohesim.assembly

        assemble, calls = cohesim.assembly.assemble, []

        def counting(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(cohesim.assembly, "assemble", counting)
        assert main(["check-law", str(SCENARIOS / "standard_ramp.json")]) == 0
        assert len(calls) == 1

    def test_check_law_margin_flips_with_domain_size(self, capsys):
        main(["check-law", str(SCENARIOS / "check_law_small_domain.json")])
        small = capsys.readouterr().out
        main(["check-law", str(SCENARIOS / "check_law_large_domain.json")])
        large = capsys.readouterr().out

        def margin(text):
            line = [l for l in text.splitlines() if l.startswith("H4 margin")][0]
            return float(line.split("=")[1].split("(")[0])

        assert margin(small) > 0 > margin(large)

    def test_check_law_step_margin_positive_on_both_domains(self, capsys):
        # (H4) fails on the large domain, yet at tau = 0.1 the mass and
        # viscous terms of H0 keep the step strictly convex on both
        def step_margin(name):
            assert main(["check-law", str(SCENARIOS / name)]) == 0
            line = [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("step margin")][0]
            assert "tau = 0.1" in line and line.endswith("(convex)")
            return float(line.split("=")[-1].split("(")[0])

        assert 0.0 < step_margin("check_law_small_domain.json") < 1.0
        assert 0.0 < step_margin("check_law_large_domain.json") < 1.0

    def test_study_tau_refinement_rest(self, tmp_path):
        doc = {"kind": "tau_refinement", "levels": 3, "base": base_doc()}
        doc["base"]["loads"] = {}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["study", str(study), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0].startswith("level,parameter,status")
        assert len(lines) == 4
        # rest scenario: all pairwise distances zero
        for line in lines[1:3]:
            assert line.split(",")[5] == "0.0"

    def test_study_eps_inert_when_xi0_large(self, tmp_path):
        doc = {"kind": "eps_continuation", "eps_list": [0.2, 0.1, 0.05],
               "base": base_doc(initial={"xi0": 0.5})}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["study", str(study), "--out", str(out)]) == 0
        rows = (out / "study.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[5] == "0.0"
        assert rows[1].split(",")[5] == "0.0"

    def test_study_tau_orders_reported(self, tmp_path):
        doc = {"kind": "tau_refinement", "levels": 3, "base": base_doc()}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["study", str(study), "--out", str(out)]) == 0
        rows = [l.split(",") for l in (out / "study.csv").read_text().splitlines()[1:]]
        assert rows[0][6] != ""  # order populated on the first level
        assert np.isfinite(float(rows[0][6]))

    def test_study_h_refinement_runs(self, tmp_path):
        doc = {"kind": "h_refinement", "levels": 2, "base": base_doc()}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["study", str(study), "--out", str(out)]) == 0
        rows = (out / "study.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[5] != ""  # nested-mesh distance computed


class TestStudyCli:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("study_*.json")),
                             ids=lambda path: path.name)
    def test_shipped_study_writes_every_level(self, path, tmp_path):
        out = tmp_path / "out"
        assert main(["study", str(path), "--out", str(out)]) == 0
        doc = json.loads(path.read_text())
        n_levels = len((out / "study.csv").read_text().splitlines()) - 1
        assert sorted(p.name for p in out.glob("level_*")) == [
            f"level_{i:02d}" for i in range(n_levels)]
        for i in range(n_levels):
            n = doc["base"]["time"]["n"] * (2**i if doc["kind"] == "tau_refinement" else 1)
            for name, lines in (("energies.csv", n + 2), ("kkt.csv", n + 2),
                                ("tractions.csv", n + 1)):
                text = (out / f"level_{i:02d}" / name).read_text()
                assert len(text.splitlines()) == lines, (i, name)

    @pytest.mark.parametrize("kind", ["tau_refinement", "h_refinement", "eps_continuation"])
    def test_study_drops_each_record_once_compared(self, kind, tmp_path, monkeypatch):
        alive, refs = [], []
        real_run = cohesim.cli.run

        def weak_run(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            record = real_run(*args, **kwargs)
            refs.append(weakref.ref(record))
            return record

        monkeypatch.setattr(cohesim.cli, "run", weak_run)
        doc = {"kind": kind, "base": base_doc()}
        if kind == "eps_continuation":
            doc["eps_list"] = [1e-1, 1e-2, 1e-3, 1e-4]
        else:
            doc["levels"] = 4
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        assert main(["study", str(study), "--out", str(tmp_path / "out")]) == 0
        # on entry to level i + 2, level i's record is gone
        assert alive == [[], [True], [False, True], [False, False, True]]

    @staticmethod
    def write_study(tmp_path, levels=3, **base_overrides):
        doc = {"kind": "tau_refinement", "levels": levels, "base": base_doc(**base_overrides)}
        study = tmp_path / "study.json"
        study.write_text(json.dumps(doc))
        return str(study)

    def test_levels_run_in_calling_thread(self, tmp_path, monkeypatch):
        idents = []
        real_run = cohesim.cli.run

        def recording_run(*args, **kwargs):
            idents.append(threading.get_ident())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cohesim.cli, "run", recording_run)
        study = self.write_study(tmp_path)
        assert main(["study", study, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
        assert idents == [threading.get_ident()] * 3

    def test_jobs_values_write_identical_outputs(self, tmp_path):
        study = self.write_study(tmp_path)
        out_1, out_2 = tmp_path / "jobs1", tmp_path / "jobs2"
        assert main(["study", study, "--out", str(out_1), "--jobs", "1"]) == 0
        assert main(["study", study, "--out", str(out_2), "--jobs", "2"]) == 0
        names = sorted(p.relative_to(out_1) for p in out_1.rglob("*.csv"))
        assert len(names) == 1 + 3 * 3  # study.csv and three CSVs per level
        assert names == sorted(p.relative_to(out_2) for p in out_2.rglob("*.csv"))
        for name in names:
            assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()

    def test_failing_coarse_level_exits_3(self, tmp_path, capsys):
        # beta = 8: the H0 oracle refuses tau above 0.173 on this mesh, so the
        # guard rejects tau = 1/4 and accepts 1/8 and 1/16
        study = self.write_study(tmp_path, law={"kind": "prototype", "g_c": 1.0,
                                                "xi_c": 0.5},
                                 time={"T": 1.0, "n": 4})
        out = tmp_path / "out"
        assert main(["study", study, "--out", str(out)]) == 3
        assert "partial failure: 3 levels" in capsys.readouterr().out
        rows = [line.split(",") for line in (out / "study.csv").read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["failed", "ok", "ok"]
        assert rows[0][3] == "" and rows[0][5] == ""  # no residual or distance
        assert rows[1][5] != ""  # the passing levels are still compared
        for label, steps in (("level_01", 8), ("level_02", 16)):
            energies = (out / label / "energies.csv").read_text().splitlines()
            assert len(energies) == steps + 2
            assert (out / label / "kkt.csv").exists()
            assert (out / label / "tractions.csv").exists()

    def test_all_levels_failing_reports_failed(self, tmp_path, capsys):
        # beta = 8: the guard rejects both tau = 1/2 and tau = 1/4
        study = self.write_study(tmp_path, levels=2,
                                 law={"kind": "prototype", "g_c": 1.0, "xi_c": 0.5},
                                 time={"T": 1.0, "n": 2})
        out = tmp_path / "out"
        assert main(["study", study, "--out", str(out)]) == 3
        assert capsys.readouterr().out.startswith("failed: 2 levels")
        rows = [line.split(",") for line in (out / "study.csv").read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["failed", "failed"]

    def test_out_naming_a_file_exits_4(self, tmp_path, capsys):
        study = self.write_study(tmp_path, levels=2)
        out = tmp_path / "out"
        out.write_text("")
        assert main(["study", study, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(out) in err

    def test_level_directory_blocked_by_a_file_exits_4(self, tmp_path, capsys):
        study = self.write_study(tmp_path, levels=2)
        out = tmp_path / "out"
        out.mkdir()
        (out / "level_01").write_text("")
        assert main(["study", study, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(out / "level_01") in err
        # the level that ran keeps its artifacts
        assert (out / "level_00" / "energies.csv").exists()

    def test_tau_study_parses_each_level_once(self, tmp_path, monkeypatch):
        parses = []
        real_parse = cohesim.config.parse_scenario

        def counting_parse(doc):
            parses.append(doc["time"]["n"])
            return real_parse(doc)

        for module in (cohesim.config, cohesim.cli):
            monkeypatch.setattr(module, "parse_scenario", counting_parse)
        study = str(SCENARIOS / "study_tau.json")
        assert main(["study", study, "--out", str(tmp_path / "out")]) == 0
        assert parses == [120]  # the base; levels 1 and 2 are built from it

    def test_tau_levels_share_the_base_loads(self):
        spec = parse_study(json.loads((SCENARIOS / "study_tau.json").read_text()))
        scenarios = [cfg.scenario for _, _, cfg in cohesim.cli._study_levels(spec)]
        assert [sc.n for sc in scenarios] == [120, 240, 480]
        assert all(sc.loads is spec.base.scenario.loads for sc in scenarios)

    @pytest.mark.parametrize("name", ["study_tau.json", "study_eps.json"])
    def test_study_assembles_once(self, name, tmp_path, monkeypatch):
        import cohesim.assembly

        meshes = []
        real_assemble = cohesim.assembly.assemble

        def counting_assemble(mesh, materials):
            meshes.append(mesh)
            return real_assemble(mesh, materials)

        monkeypatch.setattr(cohesim.assembly, "assemble", counting_assemble)
        out = tmp_path / "out"
        assert main(["study", str(SCENARIOS / name), "--out", str(out)]) == 0
        assert len(list(out.glob("level_*"))) >= 3
        assert len(meshes) == 1

    def test_h_study_assembles_each_level(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import cohesim.assembly

        sizes = []
        real_assemble = cohesim.assembly.assemble

        def counting_assemble(mesh, materials):
            sizes.append(mesh.n_nodes)
            return real_assemble(mesh, materials)

        monkeypatch.setattr(cohesim.assembly, "assemble", counting_assemble)
        spec = parse_study({"kind": "h_refinement", "levels": 2, "base": base_doc()})
        levels = cohesim.cli._study_levels(spec)
        # one materials object for both levels, so that only the mesh differs
        materials = levels[0][2].scenario.materials
        levels = [(label, param, dataclasses.replace(cfg, scenario=dataclasses.replace(
                      cfg.scenario, materials=materials)))
                  for label, param, cfg in levels]
        assert cohesim.cli._run_study(spec, levels, str(tmp_path / "out")) == 0
        assert len(sizes) == 2 and sizes[0] < sizes[1]

    def test_tau_levels_equal_standalone_runs_byte_for_byte(self, tmp_path):
        path = SCENARIOS / "study_tau.json"
        doc = json.loads(path.read_text())
        out = tmp_path / "study"
        assert main(["study", str(path), "--out", str(out)]) == 0
        for i in range(doc["levels"]):
            level = json.loads(json.dumps(doc["base"]))
            level["time"]["n"] *= 2**i
            config = tmp_path / f"level_{i}.json"
            config.write_text(json.dumps(level))
            alone = tmp_path / f"alone_{i}"
            assert main(["run", str(config), "--out", str(alone)]) == 0
            for name in ("energies.csv", "kkt.csv", "tractions.csv"):
                assert ((out / f"level_{i:02d}" / name).read_bytes()
                        == (alone / name).read_bytes()), (i, name)

    def test_tau_level_beyond_memory_exits_2_before_any_level(self, tmp_path, capsys):
        # numpy refuses a step table beyond memory at once, without touching
        # memory; by 1000 * 2**30 + 1 rows it is beyond any address space
        from cohesim.evolution import step_dtype

        n = 1000
        n_pairs = parse_scenario(base_doc()).scenario.mesh.n_pairs

        def fits(steps):
            try:
                np.empty(steps + 1, dtype=step_dtype(n_pairs))
            except MemoryError:
                return False
            return True

        # the last level is the first whose table does not fit
        last = next(i for i in range(31) if not fits(n * 2**i))
        assert last >= 1
        first_refused = n * 2**last
        study = self.write_study(tmp_path, levels=last + 1, time={"T": 1.0, "n": n})
        out = tmp_path / "out"
        assert main(["study", study, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: 'time.n' asks for a step table of {first_refused + 1} rows, "
            "which does not fit in memory\n")

    def test_missing_study_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["study", str(tmp_path / "nope.json"), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(tmp_path / "nope.json") in err
        assert not out.exists()


STUDY_KINDS = [{"kind": "single"}, {"kind": "tau_refinement", "levels": 2},
               {"kind": "eps_continuation", "eps_list": [0.01, 0.001]},
               {"kind": "h_refinement", "levels": 2}]


class TestSnapshotStride:
    """``cohesim run`` keeps the snapshots of steps 0 and n only when it
    writes no VTK frame; a compared study level keeps the steps it shares
    with the next level."""

    @staticmethod
    def write(tmp_path, name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_without_vtk_keeps_steps_0_and_n_and_the_same_csvs(self, tmp_path, records):
        doc = json.loads((SCENARIOS / "unloading_tent.json").read_text())
        del doc["output"]
        out = tmp_path / "no_output"
        assert main(["run", self.write(tmp_path, "no_output", doc), "--out", str(out)]) == 0
        doc["output"] = {"snapshot_stride": 1, "vtk": True}
        every = tmp_path / "every_step"
        assert main(["run", self.write(tmp_path, "every_step", doc), "--out", str(every)]) == 0
        n = doc["time"]["n"]
        assert [rec.snapshot_steps for rec in records] == [[0, n], list(range(n + 1))]
        assert sorted(records[0].us) == sorted(records[0].vs) == [0, n]
        assert sorted(p.name for p in out.iterdir()) == ["energies.csv", "kkt.csv",
                                                         "tractions.csv"]
        for name in ("energies.csv", "kkt.csv", "tractions.csv"):
            assert (out / name).read_bytes() == (every / name).read_bytes(), name

    def test_single_study_without_vtk_keeps_steps_0_and_n(self, tmp_path, records):
        doc = {"kind": "single", "base": base_doc(output={"snapshot_stride": 2})}
        out = tmp_path / "out"
        assert main(["study", self.write(tmp_path, "single", doc), "--out", str(out)]) == 0
        assert [rec.snapshot_steps for rec in records] == [[0, 10]]
        assert (out / "level_00" / "energies.csv").exists()

    @pytest.mark.parametrize("study, steps", [
        (json.loads((SCENARIOS / "study_tau.json").read_text()),
         [list(range(0, 120 * 2**i + 1, 2**i)) for i in range(3)]),
        ({**STUDY_KINDS[2], "base": base_doc(output={"snapshot_stride": 3})}, [list(range(11))] * 2),
        ({**STUDY_KINDS[3], "base": base_doc(output={"snapshot_stride": 3})}, [list(range(11))] * 2),
    ], ids=["tau", "eps", "h"])
    def test_compared_levels_keep_their_comparison_strides(self, tmp_path, records, study, steps):
        # no level writes VTK frames: only the comparison reads the kept fields
        import golden

        out = tmp_path / "out"
        assert main(["study", self.write(tmp_path, "study", study), "--out", str(out)]) == 0
        assert [rec.snapshot_steps for rec in records] == steps
        assert not list(out.glob("level_*/fields_*.vtk"))
        if study["kind"] == "tau_refinement":
            diff = golden.compare_csv("study_tau/study.csv",
                                      (golden.GOLDEN / "study_tau" / "study.csv").read_text(),
                                      (out / "study.csv").read_text())
            assert diff.failure is None

    @pytest.mark.parametrize("vtk", [False, True])
    @pytest.mark.parametrize("study", STUDY_KINDS)
    def test_levels_keep_the_document_output_options(self, study, vtk):
        output = {"snapshot_stride": 3, "vtk": vtk}
        spec = parse_study({**study, "base": base_doc(output=output)})
        levels = cohesim.cli._study_levels(spec)
        assert len(levels) == (1 if study["kind"] == "single" else 2)
        for _, _, cfg in levels:
            assert (cfg.snapshot_stride, cfg.vtk) == (3, vtk)

    def test_run_without_vtk_holds_no_per_step_snapshots(self, tmp_path):
        # a 32x16 tent with n = 400 and no output section: its snapshots at
        # stride 1 would hold (n + 1) * 2 * n_nodes float64 values
        import tracemalloc

        from cohesim.mesh import build_rectangle_mesh

        doc = json.loads((SCENARIOS / "unloading_tent.json").read_text())
        del doc["output"]
        doc["mesh"].update(n_x=32, n_y=16)
        doc["time"]["n"] = 400
        config = self.write(tmp_path, "tent", doc)
        snapshots = (400 + 1) * 2 * build_rectangle_mesh(1.0, 32, 16).n_nodes * 8
        tracemalloc.start()
        try:
            assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < snapshots / 2, (peak, snapshots)


class TestStudyFrames:
    """A study level that writes VTK frames writes those of the document's
    output times and of its last step, whatever stride it records at."""

    STRIDE, N = 3, 10

    @pytest.mark.parametrize("study, frame_steps", [
        ({"kind": "single"}, [[0, 3, 6, 9, 10]]),
        ({"kind": "tau_refinement", "levels": 2}, [[0, 3, 6, 9, 10], [0, 6, 12, 18, 20]]),
        ({"kind": "eps_continuation", "eps_list": [0.01, 0.001]}, [[0, 3, 6, 9, 10]] * 2),
        ({"kind": "h_refinement", "levels": 2}, [[0, 3, 6, 9, 10]] * 2),
    ])
    def test_frames_at_the_document_output_times(self, tmp_path, records, study,
                                                 frame_steps):
        base = base_doc(output={"snapshot_stride": self.STRIDE, "vtk": True})
        path = tmp_path / "study.json"
        path.write_text(json.dumps({**study, "base": base}))
        out = tmp_path / "out"
        assert main(["study", str(path), "--out", str(out)]) == 0
        assert len(records) == len(frame_steps)
        for i, (record, steps) in enumerate(zip(records, frame_steps)):
            frames = sorted((out / f"level_{i:02d}").glob("fields_*.vtk"))
            assert len(frames) == len(steps)
            for frame, k in zip(frames, steps):
                assert bits(read_vtk_frame(frame)["fields"]["u"]) == bits(record.us[k])

    def test_single_study_writes_the_frames_of_cohesim_run(self, tmp_path):
        base = base_doc(output={"snapshot_stride": self.STRIDE, "vtk": True})
        config, study = tmp_path / "run.json", tmp_path / "study.json"
        config.write_text(json.dumps(base))
        study.write_text(json.dumps({"kind": "single", "base": base}))
        assert main(["run", str(config), "--out", str(tmp_path / "run")]) == 0
        assert main(["study", str(study), "--out", str(tmp_path / "study")]) == 0
        ran = sorted((tmp_path / "run").iterdir())
        studied = sorted((tmp_path / "study" / "level_00").iterdir())
        assert [p.name for p in ran] == [p.name for p in studied]
        assert sum(p.suffix == ".vtk" for p in ran) == 5
        for a, b in zip(ran, studied):
            assert a.read_bytes() == b.read_bytes(), a.name


def bits(values) -> bytes:
    """The float64 bit patterns of ``values``, so that ``-0.0 != 0.0``."""
    return np.ascontiguousarray(values, dtype=float).tobytes()


class TestVtkWriter:
    @pytest.mark.parametrize("n_x, n_y", [(1, 1), (5, 3)])
    def test_frame_decodes_to_the_mesh_and_fields_bit_for_bit(self, tmp_path, n_x, n_y):
        from cohesim.mesh import build_rectangle_mesh
        from cohesim.output import write_vtk_frame

        mesh = build_rectangle_mesh(0.7, n_x, n_y)
        rng = np.random.default_rng(11)
        u = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.integers(-20, 20, mesh.n_nodes)
        special = np.array([0.0, -0.0, -1.5, 1e-300, -1e-300, 1e300, -1e300, 0.1, 5e-324])
        v = np.resize(special, mesh.n_nodes)
        fields = {"u": u, "v": v, "xi": np.zeros(mesh.n_nodes)}
        write_vtk_frame(tmp_path / "frame.vtk", mesh, fields)
        frame = read_vtk_frame(tmp_path / "frame.vtk")
        assert frame["header"] == ["# vtk DataFile Version 2.0", "cohesim fields", "BINARY",
                                   "DATASET UNSTRUCTURED_GRID"]
        assert bits(frame["points"][:, :2]) == bits(mesh.nodes)
        assert bits(frame["points"][:, 2]) == bits(np.zeros(mesh.n_nodes))
        m = mesh.triangles.shape[0]
        assert np.array_equal(frame["cells"], np.column_stack([np.full(m, 3), mesh.triangles]))
        assert np.array_equal(frame["cell_types"], np.full(m, 5))
        assert list(frame["fields"]) == ["u", "v", "xi"]
        for name, values in fields.items():
            assert bits(frame["fields"][name]) == bits(values), name


def reference_csv(header, rows):
    """The cell-by-cell CSV formatting that the column writers replaced."""
    def fmt(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))

    return header + "\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)


class TestCsvWriters:
    def test_bytes_equal_cell_by_cell_reference(self, tmp_path):
        from cohesim.audit import TractionField, energy_ledger, kkt_report, traction_extraction
        from cohesim.evolution import run
        from cohesim.output import (ENERGY_HEADER, KKT_HEADER, TRACTION_HEADER,
                                    write_energy_csv, write_kkt_csv, write_traction_csv)

        rec = run(parse_scenario(base_doc()).scenario)
        ops, law, steps = rec.ops, rec.law, rec.steps[1:]
        write_traction_csv(tmp_path / "t.csv", steps["ts"], traction_extraction(
            ops, law, steps["residual"].swapaxes(0, 1), steps["traction"]))
        rows = []
        for k in range(1, rec.n_steps + 1):
            tf = traction_extraction(ops, law, rec.residual[k], rec.traction[k])
            rows.append((k, rec.ts[k], *(max_interior(tf, getattr(tf, name)) for name in (
                "sigma_plus", "sigma_minus", "transmission_defect", "cohesive_defect")),
                tf.bound))
        assert (tmp_path / "t.csv").read_text() == reference_csv(TRACTION_HEADER, rows)
        # a field without interior pairs reads 0 in every maximum
        n_pairs = ops.mesh.n_pairs
        spikes = np.full((2, n_pairs), -7.5)
        write_traction_csv(tmp_path / "t.csv", [0.5, 9.5], TractionField(
            spikes, spikes, spikes, spikes, spikes, np.zeros(n_pairs, dtype=bool), 1.0))
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "1,0.5,0.0,0.0,0.0,0.0,1.0", "2,9.5,0.0,0.0,0.0,0.0,1.0"]

        for header, table, writer in ((ENERGY_HEADER, energy_ledger(rec), write_energy_csv),
                                      (KKT_HEADER, kkt_report(rec), write_kkt_csv)):
            writer(tmp_path / "s.csv", table)
            columns = [getattr(table, "ts" if name == "t" else name)
                       for name in header.split(",")[1:]]
            expected = reference_csv(header, zip(range(rec.steps.size), *columns))
            assert (tmp_path / "s.csv").read_text() == expected
