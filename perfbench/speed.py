"""Machine-speed meter for the timed regions.

On the shared host this benchmark was written on, one thread runs the same
work at speeds that differ by up to 1.6x from one stretch of seconds or
minutes to the next; the process's CPU time tracks its wall time, so it is
not waiting, and medians over a run cannot remove a slowdown that lasts
the whole run. A ``SpeedMeter`` thread therefore times a short fixed
pure-Python kernel every 50 ms while the workload runs, and each timed
interval is scaled by ``REFERENCE_S / (median kernel time inside it)``:
the figure is the interval's length on this host at its reference speed.

The kernel is benchmark code that no change to ``src/`` can speed up or
slow down, and each sample holds the interpreter lock for about 0.3 ms
every 50 ms, the same share of every run.
"""

import statistics
import threading
import time

#: median kernel time on the reference host (2-core Xeon VM, Python 3.11)
REFERENCE_S = 3.0e-4

PERIOD_S = 0.05


def kernel():
    """Seconds taken by the fixed kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
    return time.perf_counter() - start


class SpeedMeter:
    """Background thread sampling ``kernel()`` every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.samples = []    # (perf_counter at the end of the sample, kernel seconds)
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._done.wait(PERIOD_S):
            took = kernel()
            self.samples.append((time.perf_counter(), took))

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._done.set()
        self._thread.join()

    def kernel_s(self, start, end):
        """Median kernel time sampled in [start, end], or the last sample before
        ``end`` for an interval too short to hold one; REFERENCE_S if none."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if inside:
            return statistics.median(inside)
        before = [k for t, k in self.samples if t <= end]
        return before[-1] if before else REFERENCE_S

    def scaled(self, start, end):
        """Length of [start, end] at reference speed."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)
