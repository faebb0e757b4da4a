"""A gauge of the machine's speed, sampled inside every job while it runs.

On a shared host the speed of a core drifts: the same work can take half as
long again for seconds or minutes while a neighbour is busy.  That drift is
larger than the changes the benchmark should resolve, and a reference timed
between jobs tracks it poorly, because the drift moves within a job.  So a
job process arms an interval timer, and every `INTERVAL_S` its handler runs
and times `work()`, a fixed piece of pure Python.  The job's time without the
handler's is multiplied by `REFERENCE_S` over the mean of those timings: a
job that ran while the machine was slow is scaled down by as much as the
reference was slowed.

`work()` imitates the program's mix: reduction of binary quadratic forms
with small integers, arithmetic on 2300-bit integers (the size of a
700-digit mpmath mantissa) and tuple-keyed dictionary traffic.  It imports
nothing from `classfield`, so a change to the program cannot change the
yardstick.  Changing it, `REFERENCE_S` or `INTERVAL_S` changes every scaled
time: remeasure every baseline after doing so.
"""

from __future__ import annotations

import signal
import time
from typing import List

# seconds `work()` takes on the machine the times are scaled to; about the
# fast state of the 2-core x86_64 VM of BASELINE.json
REFERENCE_S = 0.00125
INTERVAL_S = 0.025
WARM_UP = 5


def _forms(n: int) -> int:
    acc = 0
    for k in range(1, n):
        a, b = 1000 + k % 97, 2 * (k % 500) + 1
        c = (b * b + 4 * k) // (4 * a) + 1
        while not abs(b) <= a <= c:
            if a > c:
                a, b, c = c, -b, a
            else:
                q = (b + a) // (2 * a)
                b, c = b - 2 * q * a, c - q * (b - q * a)
        acc ^= a ^ b ^ c
    return acc


def _bigints(n: int) -> int:
    x = (1 << 2300) // 3 + 12345
    y = (1 << 2299) // 7 + 67890
    acc = 0
    for k in range(n):
        z = x * y + k
        q, r = divmod(z, y | 1)
        acc ^= (r >> 2200) ^ (q & 0xFFFF)
        x = (z >> 2298) | (1 << 2299)
    return acc


def _tables(n: int) -> int:
    table = {}
    for k in range(n):
        key = (k % 41, (k * 7) % 23, k % 3)
        table[key] = table.get(key, 0) + k
    return sum(v for (a, _, c), v in table.items() if (a + c) % 3 == 0)


def work() -> int:
    return _forms(480) ^ _bigints(16) ^ _tables(640)


class Gauge:
    """Times `work()` every `INTERVAL_S` of wall time between `start` and
    `stop`; `spent` is the time the gauge itself took, warm-up included."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        work()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        t = time.perf_counter()
        for _ in range(WARM_UP):
            work()
        self.spent += time.perf_counter() - t
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Disarm the timer; return the scale factor REFERENCE_S / mean."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # at least one sample, however short the job
        return REFERENCE_S * len(self.samples) / sum(self.samples)
