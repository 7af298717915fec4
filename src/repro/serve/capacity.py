"""A first-principles capacity model of the serving stack.

MLSYSIM's program (PAPERS.md): model ML infrastructure analytically from
its *real* configuration parameters, validate the model against measured
behavior, then invert it to make decisions.  This module does exactly that
for the micro-batched serving tier — the knobs are the ones
:class:`~repro.serve.BatchingConfig` already exposes (``max_batch_size``,
``max_latency_ms``) plus fleet size, and the measured
ground truth is the traffic harness (:mod:`repro.serve.traffic`).

Three layers:

* **Calibration** (:func:`calibrate_service_model`).  One probe against a
  loaded servable measures the per-forward service time at several batch
  sizes and fits the affine law ``s(B) = base_s + per_row_s * B`` (fixed
  per-call overhead plus per-row arithmetic — the same shape that makes
  micro-batching win in the first place), plus the per-request dispatch
  overhead of the submit path, measured through a real
  :class:`~repro.serve.MicroBatcher` burst.
* **Prediction** (:meth:`CapacityModel.predict`).  Closed-form queueing
  approximation mapping ``(BatchingConfig, arrival rate)`` to sustainable
  throughput, p50/p99 latency, utilization, expected batch fill, and shed
  rate.  The model's assumptions (and its documented error bounds,
  :data:`THROUGHPUT_ERROR_BOUND` / :data:`LATENCY_ERROR_BOUND`) are
  validated live by ``benchmarks/capacity_smoke.py`` and by the
  ``capacity_model_*`` rows ``benchmarks/test_capacity_model.py`` prints.
* **Inversion** (:meth:`CapacityModel.autotune`,
  :class:`AdmissionController`).  The autotuner searches the model for the
  cheapest config meeting a stated :class:`SLO`; the admission controller
  uses the calibrated service rate to shed load (HTTP 429, retryable)
  *before* the queue melts — a request that would only expire in the queue
  is refused while it is still cheap to retry elsewhere, instead of
  occupying memory until its deadline turns it into a 504.

Model assumptions (also in ``docs/serving.md``):

* Single-row requests (the dominant serving shape; multi-row blocks count
  as their row count against capacity).
* Poisson-ish arrivals at rate λ; batches form by waiting at most
  ``max_latency_ms`` for company, so the expected fill is
  ``b = min(B, 1 + λ·w)`` with gather window ``w = min(L, (B-1)/λ)``.
* Every forward runs padded to the quantum, so it costs ``s(B)``
  regardless of fill — the price of bitwise determinism is part of the
  model, not noise around it.
* Each replica runs one drain thread per batcher, and replicas overlap
  forwards only up to the host's core count; the per-request dispatch
  overhead (submit path, GIL-bound) never parallelizes.
* Queueing delay uses the Sakasegawa M/M/c approximation halved for
  near-deterministic service (M/D/c); the p99 tail treats queue wait as
  exponential.  These are engineering approximations — the documented
  error bounds are what the validation harness actually asserts.
* The model covers the in-process serving tier (queue + batcher +
  forward).  HTTP transport (JSON, sockets) is separate overhead on top;
  validate over :meth:`~repro.serve.Server.submit`-level traffic.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .batching import BatchingConfig, MicroBatcher, Overloaded

__all__ = ["AdmissionController", "CapacityModel", "CapacityPrediction",
           "LATENCY_ERROR_BOUND", "Overloaded", "SLO", "ServiceModel",
           "THROUGHPUT_ERROR_BOUND", "calibrate_service_model"]

#: Documented relative-error bound on throughput/capacity predictions,
#: asserted by ``benchmarks/capacity_smoke.py`` and
#: ``benchmarks/test_capacity_model.py``.
THROUGHPUT_ERROR_BOUND = 0.35
#: Documented relative-error bound on p50/p99 latency predictions (the
#: tail of a queueing system is intrinsically noisier than its mean).
LATENCY_ERROR_BOUND = 0.75
#: The knob grid :meth:`CapacityModel.autotune` searches by default.
AUTOTUNE_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
AUTOTUNE_WINDOWS_MS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


# --------------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------------- #
@dataclass
class ServiceModel:
    """The calibrated cost law of one servable's forward.

    ``forward_s(B) = base_s + per_row_s * B`` — a fixed per-call cost plus
    a per-row cost, fit by least squares over measured batch sizes.
    ``overhead_s`` is the per-request dispatch cost of the submit path
    (validation, digest, queue insertion, future fan-out), which is paid
    once per request and, being GIL-bound Python, never parallelizes
    across replicas.
    """

    base_s: float
    per_row_s: float
    overhead_s: float = 0.0
    #: the measured (batch_size -> median forward seconds) points the law
    #: was fit from, for inspection/serialization
    measurements: dict = field(default_factory=dict)

    def forward_s(self, batch_size: int) -> float:
        """Predicted seconds for one forward over ``batch_size`` rows."""
        return self.base_s + self.per_row_s * max(1, int(batch_size))

    def as_dict(self) -> dict:
        return {"base_s": self.base_s, "per_row_s": self.per_row_s,
                "overhead_s": self.overhead_s,
                "measurements": {str(k): v
                                 for k, v in self.measurements.items()}}


def _time_forward(predict_fn: Callable[[np.ndarray], np.ndarray],
                  rows: np.ndarray, repeats: int) -> float:
    """Median wall-clock seconds of ``predict_fn`` over ``rows``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        predict_fn(rows)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def calibrate_service_model(
        predict_fn: Callable[[np.ndarray], np.ndarray],
        input_dim: int,
        dtype: np.dtype = np.float64,
        batch_sizes: Sequence[int] = (1, 4, 16, 64),
        repeats: int = 7,
        probe_requests: int = 512,
        measure_overhead: bool = True,
        seed: int = 0) -> ServiceModel:
    """The calibration probe: measure a loaded servable once, fit the law.

    Times ``predict_fn`` at each batch size (median of ``repeats``), fits
    the affine forward-cost law by least squares, then — unless
    ``measure_overhead=False`` — drives a short saturated burst of
    single-row requests through a real :class:`MicroBatcher` and solves for
    the per-request dispatch overhead the forward timings cannot see:
    ``overhead_s = 1/observed_rate - s(B)/B`` at the probe quantum.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    timings = {}
    for batch_size in sorted(set(int(b) for b in batch_sizes)):
        rows = rng.normal(size=(batch_size, input_dim)).astype(dtype)
        predict_fn(rows)  # warm-up: first call may compile/allocate
        timings[batch_size] = _time_forward(predict_fn, rows, repeats)
    sizes = np.array(sorted(timings), dtype=np.float64)
    seconds = np.array([timings[int(b)] for b in sizes])
    if len(sizes) == 1:
        base_s, per_row_s = 0.0, float(seconds[0] / sizes[0])
    else:
        design = np.stack([np.ones_like(sizes), sizes], axis=1)
        (base_s, per_row_s), *_ = np.linalg.lstsq(design, seconds, rcond=None)
        # Timing noise can drive tiny negative coefficients; clamp — a
        # negative cost would let the capacity model predict free work.
        base_s = max(0.0, float(base_s))
        per_row_s = max(1e-9, float(per_row_s))
    model = ServiceModel(base_s=base_s, per_row_s=per_row_s,
                         measurements=timings)

    if measure_overhead and probe_requests > 0:
        quantum = max(int(b) for b in batch_sizes)
        config = BatchingConfig(max_batch_size=quantum, max_latency_ms=1.0,
                                cache_size=0)
        inputs = rng.normal(size=(probe_requests, input_dim)).astype(dtype)
        with MicroBatcher(predict_fn, config) as batcher:
            futures = []
            start = time.perf_counter()
            for row in inputs:
                futures.append(batcher.submit(row))
            for future in futures:
                future.result(timeout=120)
            elapsed = time.perf_counter() - start
        per_request = elapsed / probe_requests
        model.overhead_s = max(0.0, per_request
                               - model.forward_s(quantum) / quantum)
    return model


# --------------------------------------------------------------------------- #
# The analytic model
# --------------------------------------------------------------------------- #
@dataclass
class SLO:
    """A service-level objective the autotuner inverts the model against."""

    #: required 99th-percentile latency (milliseconds), or None
    p99_ms: Optional[float] = None
    #: required sustained request rate (req/s), or None
    min_throughput: Optional[float] = None
    #: tolerated fraction of requests shed under the stated arrival rate
    max_shed_rate: float = 0.0

    def as_dict(self) -> dict:
        return {"p99_ms": self.p99_ms, "min_throughput": self.min_throughput,
                "max_shed_rate": self.max_shed_rate}


@dataclass
class CapacityPrediction:
    """What the model expects of one ``(config, arrival rate)`` operating point."""

    arrival_rate: float
    #: maximum sustainable request rate of the config (req/s)
    capacity: float
    #: expected completed-request rate at the arrival rate (min(λ, capacity))
    throughput: float
    utilization: float
    #: expected rows fused per batch at this arrival rate
    batch_fill: float
    p50_ms: float
    p99_ms: float
    #: fraction of arrivals the config cannot serve (shed/expired under
    #: overload; 0 below saturation)
    shed_rate: float

    def as_dict(self) -> dict:
        def _round(value: float) -> float:
            return round(float(value), 4) if math.isfinite(value) else value
        return {key: _round(getattr(self, key))
                for key in ("arrival_rate", "capacity", "throughput",
                            "utilization", "batch_fill", "p50_ms", "p99_ms",
                            "shed_rate")}


#: exponential-tail multiplier mapping mean queue wait to its p99
_P99_TAIL = -math.log(0.01)  # ln(100) ≈ 4.6


class CapacityModel:
    """Closed-form throughput/latency predictions for the batching tier.

    Built from a calibrated :class:`ServiceModel`; ``replicas`` counts
    fleet processes serving the same model, each with one drain thread,
    and ``cpus`` bounds how many of their forwards genuinely overlap
    (defaults to the host's affinity count — on a 1-CPU host extra
    replicas model as no-ops).
    """

    def __init__(self, service: ServiceModel, replicas: int = 1,
                 cpus: Optional[int] = None):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.service = service
        self.replicas = int(replicas)
        if cpus is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # non-Linux
                cpus = os.cpu_count() or 1
        self.cpus = max(1, int(cpus))

    def _parallelism(self) -> int:
        """Forwards that genuinely overlap: one per replica, up to the cores."""
        return min(self.replicas, self.cpus)

    def _service_s(self, config: BatchingConfig) -> float:
        """Seconds one forward costs: every forward is padded to the quantum."""
        return self.service.forward_s(config.max_batch_size)

    def capacity(self, config: BatchingConfig) -> float:
        """Maximum sustainable single-row request rate (req/s).

        At saturation batches run full, so each drain thread retires
        ``B / s(B)`` rows per second; the per-request dispatch overhead is
        serialized on the submit side and adds ``overhead_s`` per request
        regardless of replica count.
        """
        batch = config.max_batch_size
        per_request = (self._service_s(config)
                       / (batch * self._parallelism())
                       + self.service.overhead_s)
        return 1.0 / per_request

    def predict(self, config: BatchingConfig,
                arrival_rate: float) -> CapacityPrediction:
        """Throughput, p50/p99, batch fill, and shed rate at ``arrival_rate``."""
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0 req/s")
        rate = float(arrival_rate)
        batch = config.max_batch_size
        window_s = config.max_latency_ms / 1000.0
        servers = self._parallelism()
        capacity = self.capacity(config)
        utilization = rate / capacity
        service_s = self._service_s(config)

        if utilization >= 1.0:
            # Saturated: the unbounded queue grows until deadlines or
            # admission control shed the excess, so latency diverges.
            return CapacityPrediction(
                arrival_rate=rate, capacity=capacity, throughput=capacity,
                utilization=utilization, batch_fill=float(batch),
                p50_ms=float("inf"), p99_ms=float("inf"),
                shed_rate=1.0 - capacity / rate)

        # Below saturation.  The batch opener waits for company at most
        # max_latency_ms, or until B-1 more arrivals show up — whichever
        # is sooner; a random request waits about half the gather window.
        gather_s = 0.0 if batch <= 1 else min(window_s, (batch - 1) / rate)
        # Batch fill has two sources: company gathered during the window,
        # and backlog accumulated while the drain thread ran the previous
        # forward (arrivals during one service+gather cycle open the next
        # batch together).
        fill = min(float(batch), max(1.0 + rate * gather_s,
                                     rate * (service_s + gather_s) / servers))
        # Queueing for a free server, at the *capacity* utilization — fill
        # self-regulates (a deeper backlog makes fuller batches), so the
        # long-run busy fraction is rate/capacity, not the instantaneous
        # fill's ratio.  Sakasegawa's M/M/c mean wait, halved for
        # near-deterministic (M/D/c) service.
        rho = min(utilization, 0.999)
        queue_wait_s = 0.5 * service_s * (
            rho ** math.sqrt(2.0 * (servers + 1))) / (servers * (1.0 - rho))
        base_s = self.service.overhead_s + service_s
        p50 = (base_s + 0.5 * gather_s + queue_wait_s) * 1000.0
        # p99: a request that opens a batch eats the whole gather window, on
        # top of the exponential-tailed queue wait and (worst case) the
        # residual service of a forward already in flight.
        p99 = (base_s + gather_s + service_s
               + _P99_TAIL * queue_wait_s) * 1000.0
        return CapacityPrediction(
            arrival_rate=rate, capacity=capacity, throughput=rate,
            utilization=utilization, batch_fill=fill,
            p50_ms=p50, p99_ms=p99, shed_rate=0.0)

    # ------------------------------------------------------------------ #
    # Inversion: the SLO autotuner
    # ------------------------------------------------------------------ #
    def autotune(self, slo: SLO, arrival_rate: float,
                 batch_sizes: Iterable[int] = AUTOTUNE_BATCH_SIZES,
                 latencies_ms: Iterable[float] = AUTOTUNE_WINDOWS_MS,
                 base_config: Optional[BatchingConfig] = None,
                 ) -> Tuple[BatchingConfig, CapacityPrediction]:
        """The cheapest :class:`BatchingConfig` meeting ``slo`` at ``arrival_rate``.

        Searches the knob grid and returns ``(config, prediction)`` for the
        least-cost config whose *predicted* operating point satisfies every
        stated objective — cost ordered by batch size first (memory and
        per-request latency floor), then the batching window.  Raises
        ``ValueError`` (naming the best achievable operating point) when no
        point in the grid meets the SLO — the honest answer being "buy more
        capacity", not a config that will miss its promise.
        """
        base = base_config or BatchingConfig()
        required_rate = max(float(arrival_rate), slo.min_throughput or 0.0)
        best: Optional[Tuple[tuple, BatchingConfig, CapacityPrediction]] = None
        closest: Optional[Tuple[float, BatchingConfig, CapacityPrediction]] = None
        for batch in sorted(set(int(b) for b in batch_sizes)):
            for window in sorted(set(float(w) for w in latencies_ms)):
                config = replace(base, max_batch_size=batch,
                                 max_latency_ms=window)
                prediction = self.predict(config, required_rate)
                meets = (prediction.shed_rate <= slo.max_shed_rate + 1e-9
                         and (slo.min_throughput is None
                              or prediction.throughput >= slo.min_throughput)
                         and (slo.p99_ms is None
                              or prediction.p99_ms <= slo.p99_ms))
                if meets:
                    cost = (batch, window)
                    if best is None or cost < best[0]:
                        best = (cost, config, prediction)
                else:
                    miss = (prediction.p99_ms
                            if math.isfinite(prediction.p99_ms)
                            else float("inf"))
                    if closest is None or miss < closest[0]:
                        closest = (miss, config, prediction)
        if best is None:
            detail = ""
            if closest is not None:
                detail = (f"; best achievable p99 "
                          f"{closest[0]:.1f} ms with {closest[1]}")
            raise ValueError(
                f"no config in the search grid meets {slo.as_dict()} at "
                f"{arrival_rate:.0f} req/s (model capacity tops out at "
                f"{self.capacity(replace(base, max_batch_size=max(batch_sizes))):.0f} req/s)"
                + detail)
        return best[1], best[2]

    def describe(self) -> dict:
        return {"service": self.service.as_dict(),
                "replicas": self.replicas, "cpus": self.cpus,
                "error_bounds": {"throughput": THROUGHPUT_ERROR_BOUND,
                                 "latency": LATENCY_ERROR_BOUND}}


# --------------------------------------------------------------------------- #
# Model-driven admission control
# --------------------------------------------------------------------------- #
class AdmissionController:
    """Shed load *before* the queue melts, not after deadlines expire.

    Classic failure shape: under overload an unbounded queue grows without
    limit, every queued request eventually expires, and the server does
    nothing but manufacture 504s.  This controller uses the calibrated
    capacity of the current config to refuse requests (HTTP 429,
    retryable) while refusal is still cheap:

    * a queue depth whose predicted drain time exceeds ``max_delay_ms``
      means the request would wait out its latency budget — shed it;
    * a request whose own ``deadline_ms`` is smaller than the predicted
      wait *plus* the service floor cannot possibly be served in time —
      shed it now instead of letting it expire into a 504 later.

    Thread-safe; counters are exposed via :meth:`describe` (and the
    server's ``GET /capacity``).
    """

    def __init__(self, model: CapacityModel, config: BatchingConfig,
                 max_delay_ms: Optional[float] = None,
                 slo: Optional[SLO] = None):
        self.model = model
        self.config = config
        self.capacity_req_per_sec = model.capacity(config)
        #: seconds one already-queued request adds to the predicted wait
        self._per_queued_s = 1.0 / self.capacity_req_per_sec
        #: the latency floor a request pays even on an empty queue
        self.service_floor_ms = (
            model.service.overhead_s
            + model._service_s(config)
            + config.max_latency_ms / 1000.0) * 1000.0
        if max_delay_ms is None and slo is not None and slo.p99_ms is not None:
            # Budget = the SLO's p99 minus the unavoidable service floor.
            max_delay_ms = max(1.0, slo.p99_ms - self.service_floor_ms)
        self.max_delay_ms = max_delay_ms
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0

    def predicted_wait_ms(self, queue_depth: int) -> float:
        """Predicted queueing delay of a request behind ``queue_depth`` others."""
        return max(0, int(queue_depth)) * self._per_queued_s * 1000.0

    def admit(self, queue_depth: int,
              deadline_ms: Optional[float] = None) -> None:
        """Admit the request or raise :class:`Overloaded` (HTTP 429).

        A deadline that is *already* spent (``deadline_ms <= 0``) is not
        shed here: a 429 invites a retry, and no replica anywhere can
        serve a stale request.  It falls through to the batcher's
        submit-time expiry and surfaces as the honest, non-retryable
        ``DeadlineExceeded`` (504).
        """
        wait_ms = self.predicted_wait_ms(queue_depth)
        over_budget = (self.max_delay_ms is not None
                       and wait_ms > self.max_delay_ms)
        hopeless = (deadline_ms is not None and float(deadline_ms) > 0
                    and wait_ms + self.service_floor_ms > float(deadline_ms))
        if over_budget or hopeless:
            with self._lock:
                self.shed += 1
            if hopeless and not over_budget:
                raise Overloaded(
                    f"shedding: predicted wait {wait_ms:.1f} ms + service "
                    f"floor {self.service_floor_ms:.1f} ms exceeds the "
                    f"request deadline of {float(deadline_ms):.1f} ms — "
                    f"retry a less-loaded replica")
            raise Overloaded(
                f"shedding: {int(queue_depth)} queued requests imply a "
                f"{wait_ms:.1f} ms wait, over the {self.max_delay_ms:.1f} ms "
                f"admission budget — retry later or elsewhere")
        with self._lock:
            self.admitted += 1

    def describe(self) -> dict:
        with self._lock:
            admitted, shed = self.admitted, self.shed
        return {"capacity_req_per_sec": round(self.capacity_req_per_sec, 1),
                "max_delay_ms": self.max_delay_ms,
                "service_floor_ms": round(self.service_floor_ms, 3),
                "admitted": admitted, "shed": shed}
