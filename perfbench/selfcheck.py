"""Self-check of the benchmark, in seconds.

    python3 perfbench/selfcheck.py

Runs a tiny scenario and a tiny tau study through the untraced and the
traced path of run.py.  Asserts that every repetition passed its output
checks, that every metric run.py defines was measured, that the final JSON
line carries every metric BENCHMARK.json names for the mode, and that each
has the unit BENCHMARK.json gives it.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import TINY_WORKLOADS


def main() -> int:
    spec = run.load_spec()
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            unit = run.unit_of(metric["name"])
            assert metric["unit"] == unit, f"{metric['name']}: {metric['unit']} != {unit}"

    run.OUT.mkdir(exist_ok=True)
    for wl in TINY_WORKLOADS.values():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            m = run.measure(wl, seed=7, seconds=0, trace=trace)
            assert m["failed"] == 0, f"{wl.name}: {m['failed']} failed repetitions"
            expected = set(run.END_TO_END_UNITS)
            if trace:
                expected |= set(run.LAYER_UNITS)
            missing = expected - set(m["metrics"])
            assert not missing, f"{wl.name} trace={trace}: missing {sorted(missing)}"
            line = json.loads(run.result_line(m, [x["name"] for x in spec[kind]]))
            assert line["correct"] and line["attempted"] >= 1
            for name, value in line["metrics"].items():
                assert value["unit"], f"{name} has no unit"
                assert isinstance(value["value"], (int, float)), name
            print(f"{wl.name} trace={int(trace)}: {len(m['metrics'])} metrics, "
                  f"{m['attempted']} repetitions, all checks passed")
    # the gate is live: a reference bound no run can meet must fail the run
    strict = dataclasses.replace(TINY_WORKLOADS["tiny_run"], energy_ref=1e-12)
    m = run.measure(strict, seed=7, seconds=0, trace=False)
    assert m["failed"] == 1 and m["metrics"]["failed_frac"]["value"] > 0.0
    print("tiny_run with an unmeetable energy bound: failed as it must")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
