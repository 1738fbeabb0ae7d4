"""The benchmark's traced path wraps cohesim callables by name; it must find
every one of them."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_benchmark_tracing_installs():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import tracing; tracing.install(tracing.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "perfbench"), str(REPO / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
