"""The host's speed, measured with a fixed reference kernel.

On a shared host the CPU time of the same work drifts by tens of percent
within minutes (clock changes, cores shared with other guests), so CPU
time alone does not make runs comparable. The benchmark runs this kernel,
which does not touch rhdepth, right before and right after every timed
step, and scales the step's CPU time by NOMINAL_S over the mean of the two
kernel times. The result is the step's CPU seconds at the host speed the
bounds were set on; a change to rhdepth moves it, a change of host speed
largely does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU seconds of one kernel run on the 2-vCPU machine the bounds
# were set on. It only sets the scale, which is the same for every commit.
NOMINAL_S = 0.2

_RNG = np.random.default_rng(2311_07034)
_MATRIX = _RNG.standard_normal((200, 200))
_VECTOR = _RNG.standard_normal(64)
_SAMPLE = _RNG.standard_normal(100_000)


def kernel_seconds() -> float:
    """CPU seconds of one kernel run.

    The kernel mixes what rhdepth's commands spend their time on: small
    BLAS products, a Python loop around tiny NumPy calls, and a sort.
    """
    start = time.process_time()
    total = 0.0
    for _ in range(800):
        total += float((_MATRIX @ _MATRIX[:, :40]).sum())
    for i in range(60_000):
        total += float(_VECTOR @ _VECTOR) + i * 0.5
    total += float(np.sort(_SAMPLE)[0])
    return time.process_time() - start


class Pace:
    """Kernel runs between the timed steps of one benchmark run."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds()]

    def adjust(self, cpu_s: float) -> float:
        """Adjusted seconds of a step that ran since the last kernel run."""
        before = self.samples[-1]
        self.samples.append(kernel_seconds())
        return cpu_s * NOMINAL_S / ((before + self.samples[-1]) / 2)

    def median(self) -> float:
        return statistics.median(self.samples)
