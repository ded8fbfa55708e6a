"""Speed of the CPU that the measured processes run on, sampled as they run.

The benchmark pins itself, and so every process it starts, to one CPU
(``pin``). A SpeedProbe thread on the same CPU wakes every INTERVAL_S and
runs a small fixed kernel of the kinds of work the program does (a sparse
LU factorization and solve, numpy element-wise work, interpreted Python),
timing it by its own CPU time. Thread CPU time leaves out the time the
kernel waits while the measured process holds the CPU, and, on the hosts
measured, it grows with wall time when the host slows the CPU down (the
guest counts no steal time). So the kernel's CPU time says how fast the CPU
was at that moment.

``speed(t0, t1)`` is REFERENCE_S over the mean kernel time of the samples
taken between t0 and t1: 1 when the CPU ran the kernel in REFERENCE_S,
below 1 when it was slower. A time measured between t0 and t1, multiplied
by it, is the time at the reference speed (README.md, "Host noise").
"""
from __future__ import annotations

import os
import threading
import time

INTERVAL_S = 0.05
# the kernel's CPU time in the fast phases of the host the baseline was
# recorded on (its 10th percentile there, README.md); it only sets the
# scale of the reported times
REFERENCE_S = 0.0019
TRIM = 0.1              # share of samples cut from each end before the mean


def pin():
    """Pin this thread, and every thread and process it starts later, to
    the highest-numbered CPU this process may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def make_kernel():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = 25
    a = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-m, -1, 0, 1, m],
                 shape=(m * m, m * m), format="csc")
    b = np.ones(m * m)
    x = np.linspace(0.0, 1.0, 20000)

    def kernel():
        y = spla.splu(a).solve(b)
        z = float(np.sqrt(x * x + 1.0).sum())
        s = 0
        for i in range(2000):
            s += i & 7
        return float(y[0]) + z + s

    return kernel


class SpeedProbe:
    """Kernel samples (start on the perf_counter clock, CPU seconds)."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._kernel = make_kernel()
        self._kernel()                       # imports, first-call caches
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="speed-probe")

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            t = time.perf_counter()
            c0 = time.thread_time()
            self._kernel()
            self.samples.append((t, time.thread_time() - c0))

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def between(self, t0, t1):
        """Kernel CPU times of the samples that started in [t0, t1], or of
        the last one before t1 when none did."""
        samples = list(self.samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        before = [d for t, d in samples if t < t0]
        return inside or before[-1:]

    def speed(self, t0, t1):
        """REFERENCE_S over the trimmed mean kernel time in [t0, t1]; None
        before the first sample."""
        d = sorted(self.between(t0, t1))
        if not d:
            return None
        cut = int(len(d) * TRIM)
        kept = d[cut:len(d) - cut] or d
        return REFERENCE_S / (sum(kept) / len(kept))
