"""Reference outputs of the shipped scenario documents, and their comparison
with a fresh run.

``tests/golden/<document>/`` holds the CSVs that ``cohesim run`` or ``cohesim
study`` writes for each document of ``DOCUMENTS`` (a study's under
``level_XX/``), ``tests/golden/frames.sha256`` one SHA-256 digest per VTK
frame, and ``tests/golden/check_law/<document>.txt`` what ``cohesim
check-law`` prints for each document of ``CHECK_LAW``.  A document is
``scenarios/<document>.json`` or, for a name of ``WORKLOADS``, the seed-0
document of that benchmark workload (``perfbench/workloads.py``).  A fresh
output passes when

* it has the references' files;
* ``kkt.csv`` and every CSV header are byte-identical: KKT is exactly 0 on
  any machine;
* every other CSV value is within ``RTOL`` times the largest magnitude in its
  row, and the labels (``step``, ``level``, ``parameter``, ``status`` and
  empty fields) are equal.  ``RTOL`` is the smallest power of ten that admits
  what a second BLAS thread moved: 6.0e-12 in the 64x32 unloading tent's
  ``tractions.csv``, whose rows hold the traction bound 1 (``cohesim.output``);
* a check-law report has the reference's lines, the text between the numbers
  of a line is byte-identical, and each number is within ``RTOL`` times the
  largest magnitude in its line.

Byte differences within the tolerance, and frames whose digest differs, are
reported, not failed: another BLAS build or thread count may sum a long dot
product in another order.

    python tests/golden.py --diff      # per file: byte-identical, or its largest difference
    python tests/golden.py --update    # rewrite the references from this checkout

Update the references only for a change that is meant to move outputs, and
name the files that moved and by how much.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
DIGESTS = GOLDEN / "frames.sha256"
DOCUMENTS = {"standard_ramp": "run", "unloading_tent": "run", "rest": "run",
             "regularity_ramp": "run", "study_tau": "study", "study_eps": "study",
             "tent_64x32": "run"}
WORKLOADS = ("tent_64x32",)
CHECK_LAW = ("standard_ramp", "check_law_small_domain", "check_law_large_domain")
RTOL = 1e-11
LABELS = {"step", "level", "parameter", "status"}
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


@dataclass
class FileDiff:
    path: str            # relative to the output root, "<document>/..."
    identical: bool
    max_abs: float       # largest absolute difference of a value; nan for a frame
    failure: str | None  # why the file fails the comparison


def produce(name: str, out_dir: Path) -> None:
    """Write the outputs of document ``name`` into ``out_dir`` with ``cohesim``."""
    from cohesim.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = REPO / "scenarios" / f"{name}.json"
        if name in WORKLOADS:
            if str(REPO / "perfbench") not in sys.path:
                sys.path.append(str(REPO / "perfbench"))
            from workloads import WORKLOADS as BENCHMARK

            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(BENCHMARK[name].document(0)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([DOCUMENTS[name], str(path), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"cohesim {DOCUMENTS[name]} {name}.json exited {code}")


def check_law(name: str) -> str:
    """What ``cohesim check-law`` prints for document ``name``."""
    from cohesim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-law", str(REPO / "scenarios" / f"{name}.json")])
    if code != 0:
        raise RuntimeError(f"cohesim check-law {name}.json exited {code}")
    return out.getvalue()


def _files(root: Path, pattern: str) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob(pattern))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_digests() -> dict:
    lines = DIGESTS.read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ") for line in lines)}


def compare_csv(path: str, ref: str, new: str) -> FileDiff:
    """Compare the text ``new`` of a CSV with its reference ``ref``."""
    if new == ref:
        return FileDiff(path, True, 0.0, None)
    ref_rows = [line.split(",") for line in ref.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    header = ref_rows[0]
    failure = None
    if new_rows[0] != header:
        failure = "header differs"
    elif len(new_rows) != len(ref_rows):
        failure = f"{len(new_rows) - 1} rows, expected {len(ref_rows) - 1}"
    elif path.endswith("kkt.csv"):
        failure = "kkt.csv is not byte-identical"
    max_abs = 0.0
    for line, (a_row, b_row) in enumerate(zip(ref_rows[1:], new_rows[1:]), start=2):
        if len(b_row) != len(a_row):
            failure = failure or f"line {line} has {len(b_row)} fields, expected {len(a_row)}"
            continue
        for key, a, b in zip(header, a_row, b_row):
            if (key in LABELS or not a or not b) and a != b:
                failure = failure or f"line {line} {key}: {b!r}, expected {a!r}"
        row_max, row_failure = _compare_values(line, [(key, a, b) for key, a, b
                                                      in zip(header, a_row, b_row)
                                                      if key not in LABELS and a and b])
        max_abs, failure = max(max_abs, row_max), failure or row_failure
    return FileDiff(path, False, max_abs, failure)


def _compare_values(line: int, values: list) -> tuple:
    """The largest absolute difference of the ``(name, reference, new)`` values
    of one row, and the failure of the first that differs from its reference
    by more than ``RTOL`` times the row's largest reference magnitude (None)."""
    scale = max((abs(float(a)) for _, a, _ in values), default=0.0)
    max_abs, failure = 0.0, None
    for key, a, b in values:
        d = abs(float(b) - float(a))
        max_abs = max(max_abs, d)
        if not d <= RTOL * scale:
            failure = failure or (f"line {line} {key}: {b} differs from {a} by {d:.3g}, "
                                  f"more than {RTOL:g} x {scale:.6g}")
    return max_abs, failure


def compare_report(path: str, ref: str, new: str) -> FileDiff:
    """Compare the text ``new`` of a check-law report with its reference ``ref``."""
    if new == ref:
        return FileDiff(path, True, 0.0, None)
    ref_lines, new_lines = ref.splitlines(), new.splitlines()
    failure = None
    if len(new_lines) != len(ref_lines):
        failure = f"{len(new_lines)} lines, expected {len(ref_lines)}"
    max_abs = 0.0
    for line, (a, b) in enumerate(zip(ref_lines, new_lines), start=1):
        a_values, b_values = NUMBER.findall(a), NUMBER.findall(b)
        if NUMBER.split(a) != NUMBER.split(b) or len(a_values) != len(b_values):
            failure = failure or f"line {line}: {b!r}, expected {a!r}"
            continue
        line_max, line_failure = _compare_values(
            line, [(f"number {k}", x, y) for k, (x, y) in enumerate(zip(a_values, b_values), 1)])
        max_abs, failure = max(max_abs, line_max), failure or line_failure
    return FileDiff(path, False, max_abs, failure)


def compare_check_law(name: str) -> FileDiff:
    """:func:`compare_report` of the check-law report of document ``name``."""
    path = f"check_law/{name}.txt"
    return compare_report(path, (GOLDEN / path).read_text(), check_law(name))


def compare(name: str, out_dir: Path) -> list:
    """One :class:`FileDiff` per file of document ``name``'s outputs in
    ``out_dir`` or its references."""
    ref_dir = GOLDEN / name
    diffs = []
    csvs, ref_csvs = _files(out_dir, "*.csv"), _files(ref_dir, "*.csv")
    for rel in sorted(set(csvs) | set(ref_csvs)):
        path = f"{name}/{rel}"
        if rel not in csvs or rel not in ref_csvs:
            diffs.append(FileDiff(path, False, float("nan"),
                                  "missing" if rel in ref_csvs else "not in the references"))
        else:
            diffs.append(compare_csv(path, (ref_dir / rel).read_text(),
                                     (out_dir / rel).read_text()))
    digests = {path: d for path, d in reference_digests().items()
               if path.startswith(f"{name}/")}
    frames = {f"{name}/{rel}": _digest(out_dir / rel) for rel in _files(out_dir, "*.vtk")}
    for path in sorted(set(frames) | set(digests)):
        if path not in frames or path not in digests:
            diffs.append(FileDiff(path, False, float("nan"),
                                  "missing" if path in digests else "not in the references"))
        else:
            diffs.append(FileDiff(path, frames[path] == digests[path], float("nan"), None))
    return diffs


def update(root: Path) -> None:
    """Rewrite the references from the outputs under ``root``."""
    lines = []
    for name in DOCUMENTS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for rel in _files(root / name, "*.csv"):
            (GOLDEN / name / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(root / name / rel, GOLDEN / name / rel)
        lines += [f"{_digest(root / name / rel)}  {name}/{rel}"
                  for rel in _files(root / name, "*.vtk")]
    DIGESTS.write_text("".join(line + "\n" for line in lines))
    (GOLDEN / "check_law").mkdir(exist_ok=True)
    for name in CHECK_LAW:
        (GOLDEN / "check_law" / f"{name}.txt").write_text(check_law(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", action="store_true",
                      help="print, per file, whether it is byte-identical and its largest "
                           "absolute difference; exits 0 (the gate is tests/test_golden.py)")
    mode.add_argument("--update", action="store_true", help="rewrite the references")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in DOCUMENTS:
            produce(name, root / name)
        if args.update:
            update(root)
            print(f"references rewritten under {GOLDEN}")
            return 0
        diffs = [d for name in DOCUMENTS for d in compare(name, root / name)]
        diffs += [compare_check_law(name) for name in CHECK_LAW]
    for d in diffs:
        if d.identical:
            status = "byte-identical"
        elif d.path.endswith(".vtk"):
            status = "digest differs"
        else:
            status = f"largest absolute difference {d.max_abs:.3g}"
        print(f"{d.path}: {status}" + (f"; FAILS: {d.failure}" if d.failure else ""))
    failed = sum(d.failure is not None for d in diffs)
    print(f"{sum(d.identical for d in diffs)} of {len(diffs)} files byte-identical, "
          f"{failed} failing")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))     # this checkout's package
    sys.exit(main())
