"""Host-speed normalised timing of CPU-bound work.

The shared 2-core hosts this benchmark runs on change speed under it: for
seconds to minutes at a time the same fixed work takes up to 1.6x longer,
and the guest cannot see why (no steal time is reported, and the process's
CPU time grows with its wall time).  A single cold ``Controller.run``
lasts about 2.5 s, so which share of it a slow period covers sets its wall
time; ten runs of the same code spread by up to 29% of their median.

``SpeedProbe`` times an operation and, every ``INTERVAL_S`` while it
runs, interrupts it to time a fixed reference kernel.  The operation's
work in reference seconds is its wall time, less the time spent in the
kernel, times the mean of ``REFERENCE_S / sample``: the wall time it would
have taken on a host where the kernel always takes ``REFERENCE_S``.  Over
45 back-to-back cold runs the spread (standard deviation over mean) was
9.5% of the wall time and 2.3% normalised; the slowest wall times
(+30% over the median) read within 5% of the median.  The kernel uses no repository code,
so a change to the program cannot change the yardstick.
"""

from __future__ import annotations

import signal
import time
from typing import List

import numpy as np

#: the reference kernel's duration at reference speed: about its duration
#: inside a training run on a shared 2-core x86-64 host in a fast period,
#: so that there normalised and wall times read alike
REFERENCE_S = 0.18e-3
#: how often the kernel interrupts the timed operation (about 1% of it)
INTERVAL_S = 0.03

_MATRIX = np.random.default_rng(0).random((48, 48), dtype=np.float32)


def reference_kernel() -> None:
    """Fixed work in the two kinds the training engine does: a chain of
    small float32 matrix products, and an interpreter-bound loop.  Either
    one alone tracked the host's slow periods less well than both."""
    x = _MATRIX
    for _ in range(12):
        x = np.tanh(x @ _MATRIX)
    counts: dict = {}
    for i in range(800):
        counts[i % 37] = counts.get(i % 37, 0) + i


class SpeedProbe:
    """``with SpeedProbe() as probe: work()``, then ``probe.wall`` (s) and
    ``probe.seconds`` (host-speed normalised s).  Samples through
    ``SIGALRM``, so it is used from the main thread only."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self.wall = float("nan")
        self.seconds = float("nan")

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        spent = sum(self.samples)
        if not self.samples:   # shorter than one interval: sample once after
            self._sample()
        speed = float(np.mean(REFERENCE_S / np.asarray(self.samples)))
        self.seconds = (self.wall - spent) * speed
