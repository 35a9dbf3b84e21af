"""The machine's current speed, sampled from a second thread.

The benchmark was tuned on a shared machine whose speed drifts by up to
1.5x within minutes as other tenants load it.  While a run is in
progress a background thread times a fixed pure-Python loop every
``EVERY_S`` seconds, in thread CPU time (so waiting for the interpreter
lock does not count).  An interval of the run is then scaled to the
reference speed: multiplied by ``REF_S`` (the loop's time on the unloaded
2-core Xeon box) over the median loop time sampled during it.  Sampling
costs about 2 % of one core; it runs the same in every run.
"""
from __future__ import annotations

import bisect
import statistics
import threading
from time import perf_counter, thread_time

ITERATIONS = 150_000
REF_S = 0.0105
EVERY_S = 0.5


def loop_seconds() -> float:
    """Thread CPU seconds of a fixed loop."""
    t0 = thread_time()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return thread_time() - t0


class Sampler:
    """Context manager: samples loop_seconds() every EVERY_S while open."""

    def __init__(self):
        self.times: list[float] = []  # midpoints, increasing
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            t0 = perf_counter()
            loop = loop_seconds()
            self.times.append(0.5 * (t0 + perf_counter()))
            self.loops.append(loop)
            if self._stop.wait(EVERY_S):
                return

    def factor(self, t0: float, t1: float) -> float:
        """Reference over measured speed around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - EVERY_S)
        hi = bisect.bisect_right(self.times, t1 + EVERY_S)
        near = self.loops[lo:hi] or self.loops
        return REF_S / statistics.median(near)

    def speed(self) -> float:
        """Median machine speed over the whole run, as a multiple of the reference."""
        return REF_S / statistics.median(self.loops)
