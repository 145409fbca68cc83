"""Host-speed reference for the end-to-end timings.

The benchmark runs on small shared hosts whose speed drifts by up to 2x
within minutes (other tenants), and every timing of a run moves with it:
wall time, set-up time and compare latency alike.  So each process times
a fixed reference loop in short windows outside its measured region:
after set-up, between the steps of the workload and at the end.  Its
timings are reported scaled by ``REFERENCE_LOOP_S`` over the median
reference time of all its windows: the time they would have taken on a
host that runs the loop in ``REFERENCE_LOOP_S``.  The raw figures are
kept beside them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter, process_time

# About the median of reference_loop() on the host of perfbench/RESULTS.md
# (Intel Xeon, 2 vCPUs, Python 3.11.7), which read 5.6-6.7 ms there.
REFERENCE_LOOP_S = 0.006
SAMPLES = 24


def reference_loop() -> int:
    """Fixed pure-Python work like the package's: tuple keys, dict
    interning, sorting and small Fractions."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(6000):
        table.setdefault((i % 61, i % 67, i % 71), len(table))
        if i % 50 == 0:
            acc += Fraction(i, 7)
    return len(sorted(table.items())) + acc.denominator


def window() -> list[float]:
    """``SAMPLES`` timings of the reference loop."""
    samples = []
    for _ in range(SAMPLES):
        start = perf_counter()
        reference_loop()
        samples.append(perf_counter() - start)
    return samples


class Clock:
    """Wall and CPU time of a measured region made of steps.

    A reference window is timed on creation and at the end of every step,
    so that the windows spread over the process's life; one factor from
    all of them scales every timing of the process.
    """

    def __init__(self):
        self.windows = [window()]
        self.wall_s = self.cpu_s = 0.0

    def start(self) -> None:
        self._wall0 = perf_counter()
        self._cpu0 = process_time()

    def step(self) -> None:
        """End the current step, time a reference window, start the next."""
        self.wall_s += perf_counter() - self._wall0
        self.cpu_s += process_time() - self._cpu0
        self.windows.append(window())
        self.start()

    def factor(self) -> float:
        """Scale that brings this process's timings to the reference speed."""
        return REFERENCE_LOOP_S / statistics.median(t for w in self.windows for t in w)
