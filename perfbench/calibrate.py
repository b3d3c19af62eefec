"""Host-speed calibration of the times a run reports.

The speed of a shared host drifts by a third or more, over seconds as well
as minutes, and every time measured on it drifts alike.  ``sample()`` times
a fixed pure-Python loop; samples taken right before and right after a
piece of work measure how fast the host ran while it ran.  Each reported
time is scaled by ``Clock.factor()`` to the time the work would take on a
host on which the loop takes ``REFERENCE_S``.  The loop is the benchmark's
own code, so a change to scrollflex never moves it.
"""

import statistics
import time
from collections import deque

LOOPS = 200_000
REFERENCE_S = 0.02
# Work longer than a second is scaled by the median of one more sample per
# second of it, up to this many, at each of its ends: the longer the work,
# the less the speed of one moment at its ends stands for it.
MAX_SAMPLES = 9


def sample() -> float:
    """Seconds the calibration loop takes now, in this process."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Clock:
    """Calibration samples between consecutive pieces of work.

    The samples after one piece of work are also the samples before the
    next, so each gap between two pieces of work is sampled once.
    """

    def __init__(self):
        self.recent = deque([sample()], maxlen=MAX_SAMPLES)
        self.factors: list[float] = []

    def factor(self, seconds: float) -> float:
        """Scale factor for ``seconds`` of work done since the last sample."""
        count = min(MAX_SAMPLES, 1 + int(seconds))
        before = statistics.median(list(self.recent)[-count:])
        after = [sample() for _ in range(count)]
        self.recent.extend(after)
        self.factors.append(2 * REFERENCE_S / (before + statistics.median(after)))
        return self.factors[-1]
