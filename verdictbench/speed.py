"""The machine speed probe (see README.md, "Machine speed").

``probe`` times a fixed piece of pure-Python work that does not touch
hopfcalc.  ``Sampler`` runs it every PERIOD_S from a SIGALRM handler while
it is armed, so a long verdict is probed all along, not only at its ends,
and keeps the time its probes took so that the caller can take it out of
its own timing.
"""
from __future__ import annotations

import signal
import statistics
import time

# probe() at the reference machine speed: its usual time on the machine of
# README.md's reference figures, in that machine's slower state
REFERENCE_PROBE_S = 0.44e-3
PERIOD_S = 0.1


def probe() -> float:
    """Seconds for 1,000 dict inserts and 2,000 integer multiply-modulo
    steps, the fastest of three tries.  Nothing it allocates is tracked by
    the garbage collector, so it never starts a collection."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        for i in range(1000):
            d[i * 7919 % 1000003] = i * i % 7
        x = 0
        for i in range(2000):
            x += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Probes once when armed, every PERIOD_S while armed, and once when
    disarmed.  ``spent`` is the time the probes of the armed interval took."""

    def __init__(self):
        self.probes: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def arm(self) -> None:
        self.probes, self.spent = [probe()], 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self) -> float:
        """After disarm: REFERENCE_PROBE_S over the mean probe time of the
        interval, the factor that takes a time measured in it to the
        reference speed."""
        self.probes.append(probe())
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)
