"""How fast the host runs Python right now, sampled while the benchmark runs.

On a shared machine the same pass of ernn can take 20-30% longer from one
run to the next because other tenants contend for the cores, which is more
than any regression bound can absorb. A timer interrupts the benchmark every
INTERVAL_S and times a fixed pure-Python Fraction loop (the probe); the
run's slowdown is the probe's mean time over REFERENCE_S, and reported
times are raw times divided by it. ernn code never runs inside the probe,
so a change to ernn moves the raw times and not the slowdown.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Optional, Tuple

INTERVAL_S = 0.1
# The probe's time on an idle core of the 2-core box the benchmark was
# defined on; calibrated seconds are seconds on such a core.
REFERENCE_S = 0.0018


def _loop() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 160):
        pre = Fraction(3, 5) * Fraction(i, 7) + Fraction(4, 5) * Fraction(3 * i + 1, 11) - Fraction(17, 3)
        if pre > 0:
            acc += Fraction(5, 13) * pre
    return acc


class HostProbe:
    """Context manager sampling the probe every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t = perf_counter()
        _loop()
        self.samples.append((t, perf_counter() - t))

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float, default: Optional[float] = None) -> float:
        """Mean probe time over REFERENCE_S, for samples taken in [start, end].

        Without samples in the window, returns default, or takes one now.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            if default is not None:
                return default
            self._sample(None, None)
            inside = [self.samples[-1][1]]
        return statistics.fmean(inside) / REFERENCE_S
