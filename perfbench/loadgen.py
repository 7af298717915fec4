"""The benchmark's open-loop load generator.

One dispatch thread sends each request at its scheduled instant, whether
or not earlier requests have completed.  Latency is timed from the
*scheduled* instant, so a stall in the generator or the program is charged
to every request that was due during it.  How late the dispatcher ran is
reported separately.  The program under test only ever sees the generated
requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

#: below this much time to the next send the dispatcher yields instead of
#: sleeping, because a sleep overshoots by tens of microseconds
_SPIN_S = 0.0002
#: how long to wait for the last requests after the final send; requests
#: still open then are reported as failed
_DRAIN_TIMEOUT_S = 60.0


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson process."""
    count = int(rate * duration * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < duration]


@dataclass
class PhaseResult:
    due: np.ndarray          # scheduled send instant of each request
    sent: np.ndarray         # actual send instant
    done: np.ndarray         # completion instant (NaN if never completed)
    ok: np.ndarray           # completed with a result
    futures: Dict[int, Future]   # the kept requests' futures, by index
    start: float
    duration: float

    @property
    def latency_ms(self) -> np.ndarray:
        """Scheduled-instant latency of the requests that succeeded."""
        return (self.done[self.ok] - self.due[self.ok]) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    def completions_per_s(self) -> float:
        """Requests completed inside the phase window, per second."""
        end = self.start + self.duration
        inside = self.ok & (self.done <= end)
        return float(inside.sum()) / self.duration


def run_open_loop(offsets: Sequence[float], send: Callable[[int], Future],
                  duration: float, keep: Optional[np.ndarray] = None,
                  on_send: Optional[Callable[[int, float, float], None]] = None
                  ) -> PhaseResult:
    """Call ``send(i)`` at ``offsets[i]`` seconds from now; wait for all.

    ``send`` submits request ``i`` and returns its future; a send that
    raises counts as a failed request.  Only the futures of requests where
    ``keep`` is true are held after completion (for output checks): holding
    every one would make the garbage collector, not the program, set the
    tail latency.  ``on_send(i, before, after)`` (optional) receives the
    instants around each ``send`` call, for tracing.
    """
    n = len(offsets)
    due = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    futures: Dict[int, Future] = {}
    finished = threading.Semaphore(0)

    def completed(index: int, future: Future) -> None:
        done[index] = time.perf_counter()
        ok[index] = future.exception() is None
        finished.release()

    def dispatch(start: float) -> None:
        for index in range(n):
            target = start + offsets[index]
            due[index] = target
            while True:
                ahead = target - time.perf_counter()
                if ahead <= 0:
                    break
                time.sleep(ahead - _SPIN_S if ahead > 2 * _SPIN_S else 0)
            before = time.perf_counter()
            sent[index] = before
            try:
                future = send(index)
            except Exception:   # a refused request is a failed request
                done[index] = time.perf_counter()
                finished.release()
                continue
            if on_send is not None:
                on_send(index, before, time.perf_counter())
            if keep is not None and keep[index]:
                futures[index] = future
            future.add_done_callback(
                lambda f, index=index: completed(index, f))

    start = time.perf_counter()
    dispatcher = threading.Thread(target=dispatch, args=(start,),
                                  name="perfbench-dispatch")
    dispatcher.start()
    dispatcher.join()
    deadline = time.monotonic() + _DRAIN_TIMEOUT_S
    for _ in range(n):
        if not finished.acquire(timeout=max(0.0, deadline - time.monotonic())):
            break
    return PhaseResult(due=due, sent=sent, done=done, ok=ok.copy(),
                       futures=futures, start=start, duration=duration)
