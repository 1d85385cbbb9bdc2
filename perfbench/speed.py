"""Host-speed correction for the end-to-end times.

The hosts this benchmark runs on are shared: the same code runs up to twice
as fast in one minute as in the next (seen on 2 vCPUs of a shared Intel Xeon
host), so wall-clock times spread more between runs than any useful bound.
A fixed calibration kernel therefore samples the host's speed all through a
run.  It is stdlib exact arithmetic of the kind liedef does, Fraction
elimination on a small matrix plus a walk over a pool of Fractions, and it
never calls liedef, so a change to the program moves corrected times exactly
as it moves wall-clock ones.

A SIGALRM timer runs the kernel every PERIOD_S seconds in this process,
between bytecodes of whatever is running; no thread or process is started.
clock() excludes the time spent sampling.  corrected() scales an interval
to the reference speed: it multiplies by REF_S over the median kernel time
of the samples taken within WINDOW_S of the interval.  The host's speed
flips between fast and slow spells lasting seconds, so a whole-run factor
(one kernel quantile for the run) spread twice as much between runs.
"""
from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW_S = 0.1
# about the kernel's median time while sampling on the host named above, so
# corrected times read there about as wall-clock times do
REF_S = 0.0015

_N = 6
_MATRIX = tuple(tuple(Fraction(i + 2 * j + 1, (i * j) % 5 + j + 1)
                      for j in range(_N)) for i in range(_N))
_POOL_SIZE = 16384
_STRIDE = 13
_rng = random.Random(7)
_POOL = [Fraction(_rng.randrange(1, 1000), _rng.randrange(1, 1000))
         for _ in range(_POOL_SIZE)]
_rng.shuffle(_POOL)


def _eliminate():
    m = [list(row) for row in _MATRIX]
    det = Fraction(1)
    for c in range(_N):
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, _N):
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _walk(offset):
    total = 0
    for i in range(offset, _POOL_SIZE, _STRIDE):
        x = _POOL[i]
        total += x.numerator * x.denominator
    return total


def kernel(offset=0):
    """One calibration sample's work; the same work on every call."""
    _eliminate()
    _walk(offset % _STRIDE)
    return _eliminate()


class Sampler:
    """Samples the kernel's time through a run; use as a context manager."""

    def __init__(self):
        self.at = []        # perf_counter() at the start of each sample
        self.took = []      # the kernel's seconds in each sample
        self.spent = 0.0    # seconds spent sampling, clock() leaves them out
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel(len(self.took))
        self.took.append(time.perf_counter() - start)
        self.at.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self):
        """perf_counter() less the time spent sampling so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:   # no sample ran between the two reads
                return now - spent

    def corrected(self, began, seconds):
        """seconds, measured from wall time began, at the reference speed."""
        lo = bisect.bisect_left(self.at, began - WINDOW_S)
        hi = bisect.bisect_right(self.at, began + seconds + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no speed sample within %.2f s of an interval"
                               % WINDOW_S)
        return seconds * REF_S / statistics.median(self.took[lo:hi])
