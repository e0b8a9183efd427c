"""Machine-speed probe for scaling wall times to a reference speed.

On a shared host the speed of one core flips between two states about
1.8x apart, in phases of a fraction of a second to tens of seconds, and the
share of slow time drifts from minute to minute.  Raw suite times of the
same code then spread by 10-35 % between runs.  The benchmark measures the
current speed with ``probe``, a fixed computation, and scales each wall
time by ``REFERENCE_S / mean(probe times)``, so that a time reads as seconds
at the speed of an uncontended core.

While a suite call or a set-up runs, the probe runs from a SIGALRM handler
every ``INTERVAL_S`` (no threads), and the time spent in the handler is
taken off the measured wall time before scaling.

The probe is plain Python with ``fractions.Fraction`` and a dict: the same
kind of work as the library's rational arithmetic, and independent of the
library, so a change to ``nugrass`` cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002  # one probe on an uncontended core (2-vCPU Intel Xeon VM, Python 3.11)
INTERVAL_S = 0.05


def probe() -> float:
    t0 = time.perf_counter()
    acc = {}
    for i in range(300):
        a = Fraction(i % 17 + 1, i % 13 + 1)
        b = Fraction(i % 7 + 2, i % 5 + 1)
        c = a * b - a
        k = i & 31
        s = acc.get(k)
        acc[k] = c if s is None else s + c
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor that turns a wall time measured alongside these probes into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Probes the speed every INTERVAL_S while active.

    ``with Sampler() as s: work()`` leaves the probe times in ``s.probes``
    and the wall time spent in the handler in ``s.spent``.
    """

    def __enter__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
