"""Synthetic traffic: arrival traces, an open-loop replay harness, and
model validation.

The evaluation half of the capacity program (:mod:`repro.serve.capacity`):
a model of p99 is only as honest as the traffic that measures it, so this
module generates *arrival traces* (Poisson and adversarial spikes, not
just closed-loop saturation) and replays them **open-loop** against a live
:class:`~repro.serve.Server` or :class:`~repro.serve.MicroBatcher`:
requests fire at their scheduled instants whether or not earlier ones have
finished, which is what makes overload visible instead of silently
throttling the load generator.

Every request's outcome is recorded individually — served, expired (504),
overloaded (429), shed (503), rejected (400), errored — along with its
latency, and :meth:`TrafficReport.deadline_violations` counts the one
outcome the stack promises never happens: a request that completed
*successfully* after its own deadline.

:func:`compare_prediction` closes the loop: observed throughput/p50/p99
against a :class:`~repro.serve.capacity.CapacityPrediction`, as relative
errors the benchmarks assert against the documented bounds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .batching import DeadlineExceeded, Overloaded, ShuttingDown
from .capacity import CapacityPrediction
from .registry import ModelNotFound

__all__ = ["TrafficGenerator", "TrafficReport", "adversarial_trace",
           "compare_prediction", "poisson_trace"]


# --------------------------------------------------------------------------- #
# Arrival traces (seconds-from-start offsets, sorted ascending)
# --------------------------------------------------------------------------- #
def poisson_trace(rate: float, duration_s: float,
                  seed: int = 0) -> np.ndarray:
    """Memoryless arrivals at ``rate`` req/s — the model's home turf."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration_s must be > 0")
    rng = np.random.default_rng(seed)
    # Draw enough exponential gaps to cover the window, then clip.
    count = max(16, int(rate * duration_s * 1.5) + 64)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < duration_s]


def adversarial_trace(rate: float, duration_s: float,
                      spike_every_s: float = 0.5,
                      seed: int = 0) -> np.ndarray:
    """Worst-case arrivals: the whole period's traffic lands at one instant.

    Same average rate as the Poisson trace, maximally bunched — every
    ``spike_every_s`` window's arrivals hit simultaneously (plus ~1 ms of
    jitter so submission order is not degenerate).  Queue depth under this
    trace spikes to ``rate * spike_every_s`` immediately; it is the trace
    that separates "p99 under Poisson" from "p99 under an adversary".
    """
    rng = np.random.default_rng(seed)
    spikes = np.arange(0.0, duration_s, spike_every_s)
    per_spike = rng.poisson(rate * spike_every_s, size=len(spikes))
    offsets = np.repeat(spikes, per_spike)
    offsets = offsets + rng.random(len(offsets)) * 1e-3
    return np.sort(offsets[offsets < duration_s])


# --------------------------------------------------------------------------- #
# Per-request records and the report
# --------------------------------------------------------------------------- #
#: outcome labels, in the order summary() reports them
OUTCOMES = ("ok", "expired", "overloaded", "shed", "rejected", "error")


@dataclass
class TrafficReport:
    """Everything one trace replay observed, per request and aggregated."""

    #: scheduled arrival offsets (seconds from trace start)
    offsets: np.ndarray
    #: measured latency per request, ms (NaN where the request never got an
    #: answer before the harness timeout)
    latencies_ms: np.ndarray
    #: one of :data:`OUTCOMES` per request
    outcomes: List[str]
    #: wall-clock seconds from first dispatch to last resolution
    duration_s: float
    #: the deadline each request carried (None if none)
    deadline_ms: Optional[float] = None
    errors: List[str] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o == outcome)

    @property
    def ok(self) -> int:
        return self.count("ok")

    def throughput(self) -> float:
        """Completed (ok) requests per second of wall-clock replay."""
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def _ok_latencies(self) -> np.ndarray:
        mask = np.array([o == "ok" for o in self.outcomes], dtype=bool)
        return self.latencies_ms[mask]

    def p50_ms(self) -> float:
        ok = self._ok_latencies()
        return float(np.percentile(ok, 50)) if len(ok) else float("nan")

    def p99_ms(self) -> float:
        ok = self._ok_latencies()
        return float(np.percentile(ok, 99)) if len(ok) else float("nan")

    def shed_rate(self) -> float:
        """Fraction of arrivals not served (everything but ok)."""
        return 1.0 - self.ok / self.sent if self.sent else 0.0

    def deadline_violations(self, grace_ms: float = 0.0) -> int:
        """Successful responses that landed *after* their own deadline.

        The stack promises this is zero: the batcher re-checks expiry at
        delivery and the router suppresses late 200s.  ``grace_ms`` admits
        client-side measurement skew (the done-callback runs a beat after
        the server-side expiry check) — keep it 0 for in-process replays.
        """
        if self.deadline_ms is None:
            return 0
        bound = float(self.deadline_ms) + grace_ms
        return int(sum(1 for latency, outcome
                       in zip(self.latencies_ms, self.outcomes)
                       if outcome == "ok" and latency > bound))

    def summary(self, grace_ms: float = 0.0) -> Dict[str, object]:
        counts = {outcome: self.count(outcome) for outcome in OUTCOMES}
        return {
            "sent": self.sent,
            "duration_s": round(self.duration_s, 3),
            "throughput_req_per_sec": round(self.throughput(), 1),
            "p50_ms": round(self.p50_ms(), 3) if self.ok else None,
            "p99_ms": round(self.p99_ms(), 3) if self.ok else None,
            "shed_rate": round(self.shed_rate(), 4),
            "deadline_ms": self.deadline_ms,
            "deadline_violations": self.deadline_violations(grace_ms),
            **counts,
        }


def _classify(error: BaseException) -> str:
    if isinstance(error, DeadlineExceeded):
        return "expired"
    if isinstance(error, Overloaded):
        return "overloaded"
    if isinstance(error, ShuttingDown):
        return "shed"
    if isinstance(error, (ModelNotFound, ValueError)):
        return "rejected"
    return "error"


# --------------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------------- #
class TrafficGenerator:
    """Replay an arrival trace against a live serving target.

    ``target`` is a :class:`~repro.serve.Server` or
    :class:`~repro.serve.MicroBatcher`, replayed **open-loop** through
    ``submit`` (no client-thread cap, the mode capacity validation uses).

    Inputs are ``distinct_inputs`` pre-generated feature rows cycled
    through in order; size it above the server's LRU capacity (or disable
    the cache) when measuring the model path rather than the cache.
    """

    def __init__(self, target, model: str = "default",
                 input_dim: Optional[int] = None,
                 dtype=np.float64, seed: int = 0,
                 distinct_inputs: int = 2048, dispatch_threads: int = 4):
        self.target = target
        self.model = model
        self.dispatch_threads = max(1, int(dispatch_threads))
        if input_dim is None:
            registry = getattr(target, "registry", None)
            if registry is not None:
                _, _, servable = registry.resolve(model)
                input_dim = servable.input_dim
            elif getattr(target, "input_dim", None) is not None:
                input_dim = target.input_dim
            else:
                raise ValueError("pass input_dim: the target does not "
                                 "expose one")
        rng = np.random.default_rng(seed)
        self._inputs = rng.normal(
            size=(int(distinct_inputs), int(input_dim))).astype(np.dtype(dtype))
        #: Server.submit takes model=; MicroBatcher.submit does not
        self._takes_model = getattr(target, "registry", None) is not None

    # ------------------------------------------------------------------ #
    def run(self, offsets: Sequence[float],
            deadline_ms: Optional[float] = None, priority: int = 0,
            timeout_s: float = 120.0) -> TrafficReport:
        """Fire one request per offset; block until every outcome is known."""
        offsets = np.sort(np.asarray(offsets, dtype=np.float64))
        if len(offsets) == 0:
            raise ValueError("empty trace")
        n = len(offsets)
        latencies = np.full(n, np.nan)
        outcomes: List[str] = ["error"] * n
        errors: List[str] = []
        pending = threading.Semaphore(0)
        finished = np.zeros(n)

        def resolve(index: int, sent: float, future) -> None:
            done = time.perf_counter()
            try:
                future.result(timeout=0)
            except BaseException as error:
                outcomes[index] = _classify(error)
                if outcomes[index] == "error":
                    errors.append(f"{type(error).__name__}: {error}")
            else:
                outcomes[index] = "ok"
            latencies[index] = (done - sent) * 1000.0
            finished[index] = done
            pending.release()

        start = time.perf_counter()

        def dispatch(indices) -> None:
            for i in indices:
                due = start + offsets[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                row = self._inputs[i % len(self._inputs)]
                sent = time.perf_counter()
                try:
                    if self._takes_model:
                        future = self.target.submit(
                            row, model=self.model, priority=priority,
                            deadline_ms=deadline_ms)
                    else:
                        future = self.target.submit(
                            row, priority=priority, deadline_ms=deadline_ms)
                except BaseException as error:
                    # Synchronous refusal: admission shed (429), shutdown
                    # (503), validation (400) — all fail before queueing.
                    done = time.perf_counter()
                    outcomes[i] = _classify(error)
                    if outcomes[i] == "error":
                        errors.append(f"{type(error).__name__}: {error}")
                    latencies[i] = (done - sent) * 1000.0
                    finished[i] = done
                    pending.release()
                    continue
                future.add_done_callback(
                    lambda f, i=i, sent=sent: resolve(i, sent, f))

        # Round-robin the schedule across dispatch threads so a single
        # GIL-bound submit loop cannot itself become the bottleneck at
        # high arrival rates.
        threads = [threading.Thread(
            target=dispatch, args=(range(k, n, self.dispatch_threads),),
            daemon=True, name=f"repro-traffic-dispatch-{k}")
            for k in range(self.dispatch_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        harness_deadline = time.monotonic() + timeout_s
        for _ in range(n):
            remaining = harness_deadline - time.monotonic()
            if remaining <= 0 or not pending.acquire(timeout=remaining):
                errors.append("harness timeout: not every request resolved")
                break
        duration = max(float(finished.max()), time.perf_counter()) - start \
            if finished.any() else time.perf_counter() - start
        return TrafficReport(offsets=offsets, latencies_ms=latencies,
                             outcomes=outcomes, duration_s=duration,
                             deadline_ms=deadline_ms, errors=errors)


# --------------------------------------------------------------------------- #
# Closing the loop: observed vs predicted
# --------------------------------------------------------------------------- #
def compare_prediction(report: TrafficReport,
                       prediction: CapacityPrediction) -> Dict[str, float]:
    """Relative errors of a prediction against one replay's observations.

    ``rel_error = |predicted - observed| / observed`` per metric; the
    benchmarks assert these against the documented bounds
    (:data:`~repro.serve.capacity.THROUGHPUT_ERROR_BOUND`,
    :data:`~repro.serve.capacity.LATENCY_ERROR_BOUND`).
    """
    def rel(observed: float, predicted: float) -> float:
        if not np.isfinite(observed) or observed <= 0:
            return float("nan")
        return abs(predicted - observed) / observed

    return {
        "throughput_rel_error": rel(report.throughput(),
                                    prediction.throughput),
        "p50_rel_error": rel(report.p50_ms(), prediction.p50_ms),
        "p99_rel_error": rel(report.p99_ms(), prediction.p99_ms),
        "shed_rate_observed": report.shed_rate(),
        "shed_rate_predicted": prediction.shed_rate,
    }
