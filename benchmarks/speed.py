"""Machine speed, measured by a fixed reference kernel during the timed loop.

The benchmark shares a few cores with other tenants of its host, whose load
slows every instruction of this process for seconds at a time: identical
work was measured 0.8x to 1.4x its median time, in phases as long as a
whole run.  Wall-clock figures therefore spread between runs by more than
any useful regression bound, and no run length fixes it.

So a ``Speedometer`` times a pure-Python kernel that shares no code with
the package, from a ``SIGALRM`` handler every ``SAMPLE_EVERY_S`` seconds
while operations run.  The kernel is slowed by the same tenants as the
operations are, and ``reference_latencies()`` turns measured seconds into
*reference seconds*: seconds on a machine where the kernel takes
``REFERENCE_S``.
Each operation is scaled by the samples taken around it, after the time the
kernel ran inside it is taken out.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import signal
import statistics
import time
from typing import List, Tuple

# The kernel's typical time on one core of a 2.1 GHz Xeon under the load the
# benchmark was tuned at, so that reference seconds read close to wall
# seconds there.  Only ratios between runs on one machine carry meaning.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0
WARMUP_SAMPLES = 5


def reference_kernel() -> int:
    """Integer arithmetic and dict stores, like the package's inner loops."""
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = total
    return total


class Speedometer:
    """Kernel timings taken while operations run, and the operations' spans.

    ``samples`` holds (time, kernel seconds) in time order and may also
    receive the samples of a forked child: ``perf_counter`` reads the
    system's monotonic clock, so their times compare across processes.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.spent = 0.0  # kernel seconds inside operations, children's too
        # (start, end, kernel seconds inside) of each operation
        self.spans: List[Tuple[float, float, float]] = []
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.spent += end - start

    def _tick(self, signum, frame) -> None:
        self.sample()

    def warm_up(self) -> None:
        """A few samples outside any operation, so that a run of one short
        operation still has a speed."""
        for _ in range(WARMUP_SAMPLES):
            self.sample()
        self.spent = 0.0

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples while a forked child works: it runs its own meter, and
        a kernel here would compete with it for a core."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def scale(self) -> float:
        """Reference seconds per measured second, over all samples."""
        return REFERENCE_S / statistics.fmean(d for _, d in self.samples)

    def reference_latencies(self) -> List[float]:
        """Each operation's time without kernel runs, in reference seconds.

        An operation is scaled by the samples taken within ``WINDOW_S`` of
        its span, because the machine's speed drifts within a run.
        """
        times = [t for t, _ in self.samples]
        sums = list(itertools.accumulate((d for _, d in self.samples), initial=0.0))
        out = []
        for start, end, kernel in self.spans:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            speed = REFERENCE_S * (hi - lo) / (sums[hi] - sums[lo]) if hi > lo else self.scale()
            out.append((end - start - kernel) * speed)
        return out


def timer_is_clear() -> bool:
    """No interval timer and no meter's handler left behind."""
    return signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0) and signal.getsignal(
        signal.SIGALRM
    ) in (signal.SIG_DFL, None)
