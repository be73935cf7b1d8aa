"""The box's speed, measured with a fixed task that does not touch the program.

On a shared machine the CPU time a process gets drifts by 10-30 % over
seconds to minutes; on a 2-vCPU shared VM, a fixed
30 ms task took between 23 and 47 ms within two minutes, and whole
minutes ran twice as fast as others.  The workloads therefore interleave
a reference task (a Python loop and small NumPy operations, like the
solver's) with their own work, and report their times at the reference
speed, ``measured * nominal / reference``; the report prints the raw
numbers and the factor too.  The reference runs between operations,
never alongside them, so a change that makes the program slower cannot
slow the reference and hide itself: the online workload probes between
two windows, the serve workloads between two requests of their
one-connection latency phase, while the server has nothing to do.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np


def _task(loops: int = 40000, sorts: int = 100) -> float:
    acc = 0.0
    values: List[float] = []
    for i in range(loops):
        acc += (i % 7) * 0.5
        values.append(acc)
    a = np.asarray(values)
    for _ in range(sorts):
        a = np.sort(a[::-1])[: len(a) - 1]
    return acc + float(a[0])


def reference_seconds(reps: int, scale: float = 1.0) -> float:
    """Fastest of ``reps`` timings of the reference task: the speed the box offers now.

    ``scale`` shrinks the task, for probes that must be short.
    """
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        _task(int(40000 * scale), int(100 * scale))
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Reference timings taken during one run; ``factor`` > 1 means the box ran slow."""

    def __init__(self, nominal_s: float, scale: float = 1.0):
        self.nominal_s = nominal_s
        self.scale = scale
        self.samples: List[float] = []

    def probe(self, reps: int = 3) -> None:
        """Add one reference timing (the fastest of ``reps``)."""
        self.samples.append(reference_seconds(reps, self.scale))

    @property
    def factor(self) -> float:
        return math.exp(sum(math.log(s) for s in self.samples) / len(self.samples)) / self.nominal_s

    def line(self) -> str:
        lo, hi = min(self.samples) * 1e3, max(self.samples) * 1e3
        return (
            f"box speed: reference task {lo:.2f}-{hi:.2f} ms over {len(self.samples)} probes"
            f" vs nominal {self.nominal_s * 1e3:.2f} ms (factor {self.factor:.4f})"
        )
