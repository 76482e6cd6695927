"""Reference-speed clock: times measured here, scaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds and by up to 1.7x over minutes, for every
process alike (CPU time drifts as much as wall time).  A fixed kernel of
interpreter-bound work like hopfk's, which imports nothing from hopfk, is
timed in short bursts on a wall-clock timer (``SIGALRM``), also in the
middle of a long op.  An interval measured by the benchmark loses the time
of the bursts inside it and is then multiplied by ``REF_S / t_kernel``,
where ``t_kernel`` is the median kernel time of the bursts during and just
around it.  The result reads as seconds on a machine where one kernel run
takes ``REF_S``: a change in hopfk moves it as it moves wall time, while a
change in the machine's speed largely cancels.
"""

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.001  # nominal seconds of one kernel run at the reference speed
BURST = 3  # kernel runs per sample
INTERVAL_S = 0.1  # timer period between samples
MARGIN_S = 1.5 * INTERVAL_S  # an interval's speed also uses samples this close to it
WARMUP = 20  # kernel runs before the first sample


def kernel():
    """One run: dict updates on tuple keys with small-int and Fraction sums,
    then a sort.  Of the mixes tried, this one slowed most nearly in
    proportion with the ops of all three workloads as the host's speed
    changed."""
    table = {}
    acc = Fraction(0)
    for i in range(800):
        key = (i % 17, i % 13, i % 7)
        table[key] = table.get(key, 0) + i * i
        if i % 25 == 0:
            acc += Fraction(i, 7)
    return len(sorted(table.items())), acc


class Speedometer:
    """Use as a context manager: the timer samples while it is entered."""

    def __init__(self):
        self.times = []  # end of each kernel run, perf_counter seconds
        self.kernel_s = []  # duration of each kernel run
        self.pauses = []  # (start, end) of each burst
        self.paused_s = [0.0]  # running total of burst time, one entry per burst
        for _ in range(WARMUP):
            kernel()
        self.sample()

    def sample(self, *_signal):
        """Time one burst of kernel runs: once before the timer starts, then
        as the timer's signal handler."""
        start = time.perf_counter()
        for _ in range(BURST):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.times.append(t1)
            self.kernel_s.append(t1 - t0)
        end = time.perf_counter()
        self.pauses.append((start, end))
        self.paused_s.append(self.paused_s[-1] + end - start)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def busy(self, start, end):
        """Seconds of [start, end] outside the bursts.  A burst runs inside
        the signal handler, so it lies wholly inside or outside any interval
        whose ends the interrupted code read from the clock."""
        lo = bisect.bisect_right(self.pauses, (start, math.inf))
        hi = bisect.bisect_left(self.pauses, (end, -math.inf))
        return end - start - (self.paused_s[hi] - self.paused_s[lo])

    def scale(self, start, end):
        """Reference seconds per busy second over [start, end], from the
        kernel runs that ended within MARGIN_S of it.  Call it after the
        timer has stopped, when the samples after ``end`` are in."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        return REF_S / statistics.median(self.kernel_s[lo:hi] or self.kernel_s[-BURST:])

    def reference_s(self, start, end):
        """[start, end] in reference seconds, without the bursts."""
        return self.busy(start, end) * self.scale(start, end)
