"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the speed of one core is not constant: on the
2-vCPU reference machine a fixed NumPy loop took 47-55 ms for stretches of
seconds and 85-100 ms for others, sometimes for a whole 30 s run, and its CPU
time moved with its wall time (so the core is slowed, not descheduled).
Without a correction, a run's times depend more on when it ran than on the
code and the seed.

Each timed piece of work is therefore bracketed by a fixed calibration
kernel that does not use batchprox (and, where the work has parts, the kernel
also runs between parts once TICK_S has passed, outside the timed segments).
Each segment is reported scaled to reference speed:
``elapsed * REFERENCE_S / mean(kernel before, kernel after)``.  The result
reads as seconds on a machine on which the kernel takes REFERENCE_S (the
reference machine in its fast state).  Unscaled wall times are printed and
stored next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference machine in its fast state.
REFERENCE_S = 0.010

# A segment of work is closed (and the kernel run) at the first tick after it
# has run this long.
TICK_S = 0.15

_KERNEL_ITERS = 2000
_rng = np.random.default_rng(20210107)
_A = _rng.random((200, 20))
_X = _rng.random(20)
_B = _rng.random(200)


def kernel_s(clock=time.perf_counter) -> float:
    """Wall time of the calibration kernel: a least-absolute-deviation
    objective at desk size (N=200, n=20) evaluated in a Python loop, the mix
    of interpreter, NumPy-call and small-BLAS work of a batchprox step.  Of
    three kernels tried against single runs of each workload on the
    reference machine, its slowdown tracked theirs most closely."""
    t0 = clock()
    for _ in range(_KERNEL_ITERS):
        r = _A @ _X - _B
        np.abs(r).sum()
    return clock() - t0


def to_reference(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    return elapsed * REFERENCE_S / (0.5 * (kernel_before + kernel_after))


class Speed:
    """Times a piece of work in wall and reference-speed seconds.

    ``start`` runs the kernel; ``tick``, called by the work between two of
    its parts, closes the current segment once it is TICK_S seconds long
    by running the kernel again (outside the timed segments); ``stop`` closes
    the last segment.  Each segment is scaled with the kernels at its two
    ends, so a change of machine speed inside the work is tracked at the
    ticks' granularity."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.kernel: list[float] = []

    def start(self):
        self.kernel.append(kernel_s(self.clock))
        self.wall = self.scaled = 0.0
        self._t0 = self.clock()

    def tick(self, force: bool = False):
        elapsed = self.clock() - self._t0
        if elapsed < TICK_S and not force:
            return
        self.kernel.append(kernel_s(self.clock))
        self.wall += elapsed
        self.scaled += to_reference(elapsed, self.kernel[-2], self.kernel[-1])
        self._t0 = self.clock()

    def stop(self):
        """(wall_s, scaled_s) of the work since ``start``."""
        self.tick(force=True)
        return self.wall, self.scaled
