"""The benchmark's traced path wraps cohesim callables by name; it must find
every one of them, and the spans it counts must keep their meaning."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PATHS = [str(REPO / "perfbench"), str(REPO / "src"), str(REPO / "tests")]


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code, *PATHS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_tracing_installs():
    run_python("import sys; sys.path[:0] = sys.argv[1:]; "
               "import tracing; tracing.install(tracing.Tracer())")


def test_traced_run_counts_one_energy_evaluation_per_step():
    # the benchmark divides Newton iterations by the incremental_energy spans
    out = run_python(
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "import cohesim.evolution\n"
        "from scenarios import unloading_tent\n"
        "cohesim.evolution.run(unloading_tent(n=3, n_x=4, n_y=2))\n"
        "names = [s['name'] for s in tracer.spans]\n"
        "print(names.count('step.newton_direction'), "
        "names.count('step.incremental_energy'))\n")
    directions, energies = map(int, out.split())
    assert directions >= 1
    assert energies == 3


def test_traced_config_run_counts_load_spans():
    # loads are sampled on demand: the operator is built once when the
    # scenario is parsed, and every step's lookup evaluates its samples
    out = run_python(
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "import cohesim.config, cohesim.evolution\n"
        "from test_config_cli import base_doc\n"
        "doc = base_doc(time={'T': 0.3, 'n': 3})\n"
        "cfg = cohesim.config.parse_scenario(doc)\n"
        "cohesim.evolution.run(cfg.scenario)\n"
        "names = [s['name'] for s in tracer.spans]\n"
        "print(names.count('assembly.load_sampling'), "
        "names.count('evolution.load_lookup'))\n")
    sampling, lookups = map(int, out.split())
    assert sampling == 1
    assert lookups >= 3


def test_traced_cli_run_counts_one_audit_per_run_and_a_lookup_and_energy_per_step(tmp_path):
    # audit.traction_s reads one span per run, since the traction audit reads
    # the step table once after the time loop; evolution.load_lookup_s and
    # step.iters_per_eval read one span of each per step; a converged step
    # makes no polish direction, so the step.newton_direction spans are the
    # Newton iterations
    out = run_python(
        "import json, os, sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "import cohesim.cli\n"
        "from test_config_cli import base_doc\n"
        "records, real_run = [], cohesim.cli.run\n"
        "cohesim.cli.run = lambda *a, **k: records.append(real_run(*a, **k)) or records[-1]\n"
        f"tmp = {str(tmp_path)!r}\n"
        "path = os.path.join(tmp, 'cfg.json')\n"
        "with open(path, 'w') as f:\n"
        "    json.dump(base_doc(time={'T': 0.3, 'n': 3}), f)\n"
        "assert cohesim.cli.main(['run', path, '--out', os.path.join(tmp, 'out')]) == 0\n"
        "names = [s['name'] for s in tracer.spans]\n"
        "print(*(names.count(name) for name in ("
        "'audit.traction', 'evolution.load_lookup', 'step.incremental_energy',"
        "'step.newton_direction')), records[0].newton_iters.sum())\n")
    audits, *per_step, directions, iters = map(int, out.splitlines()[-1].split())
    assert audits == 1 and per_step == [3, 3]
    assert directions == iters >= 3
