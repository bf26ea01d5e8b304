"""Timing at a reference machine speed.

The 2-core machine this benchmark was tuned on runs in a fast and a slow
state, about 1.5x apart, that alternate every few seconds and shift in
share over minutes (README.md has the measurements). Raw wall times spread
by 28-45% across ten runs of one workload, far more than any bound
worth setting. So a run samples the machine's speed all along: a SIGALRM
handler, in the one benchmark thread, runs a fixed probe kernel every
``INTERVAL`` seconds and records when it ran. A timing is then scaled to
the speed at which the probe takes ``PROBE_REF_S``, using the probe samples
taken during and around it, and the probe's own time is taken out of any
interval it interrupted.

The probe is the benchmark's own code and does not touch the program, so a
change to the program cannot change it. It does the kind of work the
program's numeric core does (small objects with closures, finiteness
checks, small numpy ops), which makes it slow down in step with the program:
on the tuning machine the ratio of predict latency to probe time moved by
3% across two-second windows while each of them moved by more than 20%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1       # seconds between probe samples
PROBE_REF_S = 1e-3   # the probe's time at the reference speed


class _Node:
    __slots__ = ("data", "parents", "back")

    def __init__(self, data, parents=(), back=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise ArithmeticError("probe produced a non-finite value")
        self.parents = tuple(parents)
        self.back = back


def probe_kernel() -> _Node:
    """About 1 ms of fixed work; deterministic and always finite."""
    x = _Node(np.linspace(-1.0, 1.0, 96).reshape(12, 8))
    w = _Node(np.linspace(0.5, -0.5, 64).reshape(8, 8))
    for _ in range(25):
        h = _Node(x.data @ w.data, (x, w), lambda g: g)
        e = np.exp(h.data - h.data.max(axis=1, keepdims=True))
        x = _Node(e / e.sum(axis=1, keepdims=True), (h,), lambda g: g)
        x = _Node(x.data - x.data.mean(axis=1, keepdims=True), (x,), lambda g: g)
        order = sorted(range(12), key=lambda i: float(x.data[i, 0]))
        x = _Node(x.data[order], (x,), None)
    return x


class SpeedProbe:
    """Samples the probe kernel from SIGALRM between start() and stop().

    After stop(), sample i gives the factor PROBE_REF_S / its duration at its
    start time. A median over each sample and its two neighbours drops a
    probe that was itself interrupted, and the factor between two samples is
    taken as linear, so an interval that spans both machine states is scaled
    by the time-weighted mean factor over it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._factors: list[float] = []
        self._cumulative: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        probe_kernel()  # first call outside any timing: numpy warm-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            raise RuntimeError("no probe samples were taken")
        raw = [PROBE_REF_S / (end - start) for start, end in zip(self.starts, self.ends)]
        self._factors = [statistics.median(raw[max(i - 1, 0):i + 2]) for i in range(len(raw))]
        self._cumulative = [0.0]
        for i in range(len(raw) - 1):
            step = self.starts[i + 1] - self.starts[i]
            self._cumulative.append(
                self._cumulative[-1] + step * (self._factors[i] + self._factors[i + 1]) / 2
            )

    def _integral(self, t: float) -> float:
        """Integral of the factor from the first sample to t."""
        starts, factors = self.starts, self._factors
        i = bisect.bisect_right(starts, t) - 1
        if i < 0:
            return (t - starts[0]) * factors[0]
        if i == len(starts) - 1:
            return self._cumulative[i] + (t - starts[i]) * factors[i]
        step = t - starts[i]
        at_t = factors[i] + (factors[i + 1] - factors[i]) * step / (starts[i + 1] - starts[i])
        return self._cumulative[i] + step * (factors[i] + at_t) / 2

    def intrusion(self, begin: float, end: float) -> float:
        """Probe time spent inside [begin, end]."""
        first = bisect.bisect_left(self.starts, begin)
        last = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(first, last))

    def factor(self, begin: float, end: float) -> float:
        """Reference speed over the machine's speed, averaged over [begin, end]."""
        return (self._integral(end) - self._integral(begin)) / (end - begin)

    def unscaled(self, begin: float, end: float) -> float:
        """Seconds in [begin, end] outside the probe."""
        return end - begin - self.intrusion(begin, end)

    def scaled(self, begin: float, end: float) -> float:
        """Seconds [begin, end] would take at the reference speed."""
        return self.unscaled(begin, end) * self.factor(begin, end)
