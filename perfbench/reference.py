"""A fixed reference kernel that measures how fast the machine runs right now.

A 2-vCPU virtual machine on a shared host (Xeon, 2.1 GHz) runs
the same code up to twice as slowly at some times as at others, in
stretches that last from seconds to minutes.  The kernel below does a
fixed mix of the work cmvkit's commands do (interpreted Python and small
LAPACK calls) on inputs that never change, and it uses no cmvkit code,
so no change to the package can make it faster or slower.  Timing it
right after every invocation tells the benchmark how fast the machine
was while the invocation ran, and each latency is scaled by
``REF_MS / measured``, the measured time being the median of the
timings within ``WINDOW`` invocations either side.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 5.0   # nominal kernel time that scaled timings refer to
WINDOW = 2     # neighbours either side whose kernel timings are pooled
REPS = 3       # kernel timings behind a single scale (setup probes)


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20051017)
        self.big = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.small = rng.standard_normal((6, 6))

    def once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        np.linalg.eigvals(self.big)
        for _ in range(50):
            np.linalg.eigvals(self.small)
            self.small @ self.small
        return time.perf_counter() - start

    def scale(self) -> float:
        """REF_MS over the median of REPS kernel timings (both in ms)."""
        return REF_MS / (1e3 * statistics.median(self.once() for _ in range(REPS)))


def scales(timings: list[float]) -> list[float]:
    """Per-invocation scale from the kernel timings taken after each one."""
    return [
        REF_MS / (1e3 * statistics.median(timings[max(i - WINDOW, 0) : i + WINDOW + 1]))
        for i in range(len(timings))
    ]
