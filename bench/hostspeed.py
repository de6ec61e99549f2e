"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed changes
while it runs: the same code ran up to 1.7 times slower for stretches of
seconds to minutes, in CPU time as much as in wall time, so the slowdown is
contention for the cores, not waiting for them. A run of 30 s cannot
average that out, and the medians of whole runs differed by 20-40 %.

So the worker also times a fixed reference kernel in the gaps between
operations: interpreter arithmetic, numpy calls on tiny and small arrays
and text-to-float parsing, the kinds of work the package does. Each
operation's wall time is reported at reference speed too: multiplied by
``NOMINAL_S`` over the median kernel time within ``WINDOW_S`` of the
operation. The kernel is benchmark code and never changes with the
package, so a faster or slower package shows in full; a slower host slows
both and cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.006  # the kernel's time when the tuning machine's host was idle
EVERY_S = 0.5  # sample at most this often ...
REPEATS = 3  # ... this many kernel runs at a time
WINDOW_S = 1.0  # reference samples this close to an operation set its speed


TEXT = ",".join(repr(k * 0.001) for k in range(4000))


def kernel() -> float:
    """About 6 ms on an idle host."""
    x = 0.0
    for k in range(30_000):
        x += (k * 0.5) ** 0.5
    v = np.linspace(0.0, 1.0, 8)
    for _ in range(800):
        v = np.sin(v) * 0.5 + np.cos(v) * 0.5
    a = np.arange(2000.0)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0)
    x += sum(float(t) for t in TEXT.split(","))
    return x + float(a[0] + v[0])


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each kernel start
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the kernel ``REPEATS`` times, unless sampled within ``EVERY_S``."""
        if not force and self.starts and time.perf_counter() - self.starts[-1] < EVERY_S:
            return
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            self.starts.append(t0)
            self.seconds.append(time.perf_counter() - t0)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds  # no sample near: the whole run
        return NOMINAL_S / statistics.median(near)
