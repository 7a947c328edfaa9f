"""Machine-speed sampler: times measured at a fixed reference speed.

On a shared host the speed of one CPU changes from moment to moment, by up to
2x within a second, with neighbours' load on the same physical core, and the
lost time does not show as stolen time: the process's CPU time grows exactly
as its wall time does.  So a worker measures the machine's speed while it
runs.  A periodic timer signal interrupts the program every `PERIOD_S` and
runs a fixed calibration kernel (exact `Fraction` elimination and dict work,
stdlib only, nothing from `cblocks`), recording how long it took.  An
interval of program time is then rescaled to what it would have taken at the
speed where the kernel takes `KERNEL_REF_S`:

    reference seconds = program seconds * KERNEL_REF_S * mean(1 / kernel time)

over the kernel samples taken inside the interval (or the nearest one on
each side, for an interval shorter than the period), each sample smoothed as
the median of itself and its two neighbours on each side.  Time spent in the
signal handler is excluded from program time.

A faster program still reads faster: the kernel's work is fixed, so only the
machine's speed divides out.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
SMOOTH = 2  # neighbours on each side in a sample's smoothing window

# Kernel time on a quiet two-core virtual machine (Python 3.11): the speed
# that reference seconds refer to.  Any fixed value would do; this one makes
# reference seconds read about as wall seconds there.
KERNEL_REF_S = 0.0003

_KERNEL_ROWS = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1)
                 for j in range(6)] for i in range(4)]


def kernel():
    """Fixed exact work: Fraction elimination on a 4x6 matrix, dict updates."""
    rows = [list(r) for r in _KERNEL_ROWS]
    for c in range(len(rows)):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts = {}
    for i in range(120):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + i
    return rows, counts


class Sampler:
    """Kernel samples on a timer signal, and program time without them."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts, self.kernel_s = [], []
        self.paused = 0.0  # time spent in the handler so far
        self._previous = None
        self.smoothed = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def start(self):
        self._tick(None, None)  # every interval has a sample on each side
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)
        ks = self.kernel_s
        self.smoothed = [statistics.median(ks[max(0, j - SMOOTH):j + SMOOTH + 1])
                         for j in range(len(ks))]

    def now(self):
        """(wall clock, program clock): perf_counter with and without handler time."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:  # no handler ran in between
                return t, t - paused

    def reference_s(self, start, end):
        """Program time between two `now()` readings, in reference seconds.

        Call after `stop`.
        """
        (a, pa), (b, pb) = start, end
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        if hi == lo:  # no sample inside: the nearest one on each side
            lo, hi = lo - 1, lo + 1
        speed = statistics.fmean(1 / self.smoothed[j] for j in range(lo, hi))
        return (pb - pa) * KERNEL_REF_S * speed
