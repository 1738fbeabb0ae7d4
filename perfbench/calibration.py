"""Machine-speed calibration for the end-to-end times.

The benchmark's reference machine has 2 CPUs shared with other tenants.  Its
speed changes by up to 2x for seconds to minutes at a time, and CPU time
changes with wall time (there is almost no steal time to subtract), so a
raw wall time measures the neighbours as much as the program.

A fixed kernel, independent of cohesim, is timed in the workload process
alongside the command: once before it, once after it, and, in the main
thread, every ``INTERVAL_S`` seconds between time steps.  The kernel mixes
the three kinds of work the program does: interpreted Python, small numpy
array operations and a dense BLAS product.  Its mean time in a repetition,
divided by ``REFERENCE_S``, is the repetition's slowdown factor.  run.py
divides the run's total raw time by the total of those factors: the time
the command would take when the kernel takes ``REFERENCE_S`` seconds.

The time spent in the kernel between steps is subtracted from the raw wall
time, so the program's own time is what gets scaled.
"""

from __future__ import annotations

import io
import threading
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's time on the reference machine in a fast phase (about 8.5 ms
# there); calibrated times are expressed at that speed.
REFERENCE_S = 0.0085
INTERVAL_S = 0.25

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((120, 120))
_VECTOR = _RNG.random(64)
_LAPLACIAN = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(400, 400), format="csc")
_LU = spla.splu(_LAPLACIAN)
_FLOATS = _RNG.random(600).tolist()


def _python():
    acc = 0
    for i in range(24000):
        acc += i * i


def _numpy():
    total = 0.0
    for _ in range(300):
        total += float((_VECTOR * 2.0 + _VECTOR).sum())


def _sparse():
    for _ in range(60):
        _LU.solve(_VECTOR.repeat(7)[:400])


def _format():
    buf = io.StringIO()
    for x in _FLOATS:
        buf.write(f"{x!r} {x:.6e}\n")


def _blas():
    for _ in range(6):
        _MATRIX @ _MATRIX


PARTS = (_python, _numpy, _sparse, _format, _blas)


def kernel() -> list:
    """Run the calibration kernel once; return each part's CPU time in seconds.

    CPU time of the calling thread, so that a kernel run in one of the
    study's pool threads does not count the time it waits for the
    interpreter lock while the other thread holds it.
    """
    times = []
    for part in PARTS:
        t0 = time.thread_time()
        part()
        times.append(time.thread_time() - t0)
    return times


class Calibrator:
    """Kernel samples taken during one command, and the time they cost."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._lock = threading.Lock()
        self._last = threading.local()

    def sample(self) -> None:
        times = kernel()
        with self._lock:
            self.samples.append(times)
            self.spent_s += sum(times)
        self._last.at = time.perf_counter()

    def between_steps(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since this thread last did."""
        if time.perf_counter() - getattr(self._last, "at", 0.0) >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Slowdown against the reference: mean kernel time / reference."""
        return float(np.mean(np.sum(self.samples, axis=1))) / REFERENCE_S
