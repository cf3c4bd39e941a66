"""The reference loop that turns wall time into reference time.

The host this benchmark runs on changes speed from one second to the next
(a fixed loop alternates between about 1.1 and 2.2 ms a pass in phases of
around half a second), so a raw time does not repeat.  While operations
run, a wall-clock timer interrupts them every `INTERVAL_S` and times one pass
of a fixed pure-Python loop (``Fraction`` arithmetic and dict updates, no
``weylval`` code).  Each operation's wall time, less the time spent in those
passes, is scaled by the loop's nominal pass time over its mean measured pass
time during the operation.  A figure in reference seconds is what the
operation would have taken on a host that runs one pass in exactly
``NOMINAL_PASS_S``.

The loop and its nominal time are part of the benchmark's definition: change
either and every earlier figure stops being comparable.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import Callable, List, Optional

NOMINAL_PASS_S = 0.0012
INTERVAL_S = 0.04


def reference_pass() -> Fraction:
    acc: dict = {}
    total = Fraction(0)
    for k in range(1, 151):
        q = Fraction(k, k + 7)
        total += q * q - Fraction(1, k)
        slot = k % 13
        acc[slot] = acc.get(slot, 0) + total.denominator % 97
    return total


def loop_seconds(passes: int = 4) -> float:
    """Wall time of `passes` reference passes."""
    start = time.perf_counter()
    for _ in range(passes):
        reference_pass()
    return time.perf_counter() - start


class Yardstick:
    """Times one reference pass every INTERVAL_S of wall time, on SIGALRM.

    Use it as a context manager around the timed pass.  `on_sample`, if set,
    receives the seconds each sample took, so that a tracer can keep them out
    of the self time of the function they interrupted.
    """

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None):
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self.on_sample = on_sample
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_pass()
        spent = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(spent)
        if self.on_sample is not None:
            self.on_sample(spent)

    def __enter__(self) -> "Yardstick":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple:
        """(work seconds, scale) for an operation that ran from start to end.

        Work seconds leave out the samples taken inside the interval.  The
        scale averages those samples and the last one before `start`.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        passes = self.seconds[max(first - 1, 0):last]
        spent = sum(self.seconds[first:last])
        return end - start - spent, NOMINAL_PASS_S * len(passes) / sum(passes)
