"""Host-speed probe for the timed passes.

The reference machine shares its cores with other tenants, and its
speed swings by up to 2x within seconds: CPU time follows wall time, so
the loss is in the core, not in scheduling.  A pass therefore samples
the host's speed while it runs.  Every PERIOD_S a SIGALRM handler times
one fixed piece of reference work, big-integer and Fraction arithmetic
like the library's own.  A job's host factor is the mean duration of the
samples around it, and the runner reports each time as
`raw * NOMINAL_S / factor`: seconds at the host's uncontended speed.  A
fixed NOMINAL_S, not the fastest sample of a run, keeps the scale the
same in runs that never see the host uncontended.  The handler costs
about 1% of a pass.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.025
# reference_work() on an uncontended core of the reference machine (Intel
# Xeon KVM guest, 2 vCPUs, Python 3.11.7): the lowest run minimum seen
NOMINAL_S = 155e-6
WINDOW_S = 0.1  # samples this close to a job count for it


def reference_work():
    acc = Fraction(0)
    x = 3 ** 300
    for i in range(1, 60):
        acc += Fraction(i, i + 7)
        x = x * 7 + i
    return acc, x


class SpeedProbe:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def sample(self, *_):
        start = time.perf_counter()
        reference_work()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def sample_now(self):
        """One sample outside the timer, with the timer's signal held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean(self, t0, t1):
        """Mean sample duration within WINDOW_S of [t0, t1]; the nearest sample if none."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        window = self.took[lo:hi]
        return sum(window) / len(window)
