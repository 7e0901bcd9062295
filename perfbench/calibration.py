"""Host-speed calibration: a fixed kernel timed alongside every workload.

On a shared host the CPU speed of one core drifts by 20-40% over tens of
seconds (CPU time tracks wall time, so it is speed, not scheduling).  A run
therefore also times a fixed kernel of the same character as the package
(3x3 numpy products and Python scalar arithmetic), interleaved with its
passes.  Timings are reported as reference seconds: each pass's wall
seconds times ``REF_UNIT_S / (mean kernel time just before and just after
it)``, the time the pass would have taken with the kernel at its reference
speed.  The kernel is benchmark code,
so no change to the package can move it; a program that gets slower reads
slower whatever the host's speed.  Raw wall times are printed beside them.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

REF_UNIT_S = 0.014  # one kernel unit: median on a 2-core x86-64 sandbox, Python 3.11, numpy 2.4
UNIT_EVERY_S = 0.125  # one unit per this much measured time, after each pass


def unit() -> float:
    """Run the kernel once and return its wall time in seconds.

    The garbage collector is off meanwhile, so the size of the program's
    heap cannot change the kernel's time."""
    a = np.arange(9.0).reshape(3, 3) / 10.0
    acc = 0.0
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(1500):
            b = a @ a + 0.5 * a
            acc += float(np.max(np.abs(b))) + math.exp(-i * 1e-3)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Kernel samples taken through a run, in proportion to measured time."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, covered_s: float) -> tuple[int, float]:
        """Run one kernel unit per UNIT_EVERY_S of covered_s (at least one);
        return this batch's unit count and summed time."""
        n = max(1, math.ceil(covered_s / UNIT_EVERY_S))
        spent = sum(unit() for _ in range(n))
        self.units += n
        self.seconds += spent
        return n, spent

    @property
    def factor(self) -> float:
        """Reference seconds per wall second in this run."""
        return REF_UNIT_S * self.units / self.seconds


def bracket_factor(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Reference seconds per wall second for a pass, from the kernel batches
    run just before and just after it (as ``HostSpeed.sample`` returns them)."""
    return REF_UNIT_S * (before[0] + after[0]) / (before[1] + after[1])
