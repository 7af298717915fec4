"""Capacity-model smoke for CI: predictions must match live traffic.

Stands up a real :class:`~repro.serve.Server` over a servable with an
*exactly known* service law (the forward sleeps ``base + per_row * B`` —
sleeping releases the GIL like a BLAS call, so service time stays
deterministic even on a noisy shared runner), then closes the loop the
capacity program promises:

1. **Calibrate** the service model from the live servable and check the
   fitted law against the ground truth it was constructed with.
2. **Validate light-load predictions**: replay a Poisson trace at ~35% of
   predicted capacity through the server (open loop) and assert observed
   throughput/p50/p99 within the documented error bounds
   (:data:`~repro.serve.capacity.THROUGHPUT_ERROR_BOUND`,
   :data:`~repro.serve.capacity.LATENCY_ERROR_BOUND`).
3. **Validate capacity**: replay a trace at 2x predicted capacity and
   assert the served rate lands within the throughput bound of the
   prediction.
4. **Autotune**: invert the model for a stated p99 SLO, serve at the
   returned config, and assert the *observed* p99 meets the SLO.
5. **Admission control**: replay an adversarial (synchronized-spike)
   trace against an admission-gated server and assert load is shed as
   429s while served requests still meet their deadlines.

Throughout, the deadline promise is asserted exactly: **zero** responses
complete successfully after their own deadline.  Every check here is
exact or within the documented bounds — this job is NOT advisory.  Run
with ``PYTHONPATH=src python benchmarks/capacity_smoke.py``.
"""

from __future__ import annotations

import os
import sys
import time

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)

import numpy as np

from repro.serve import (AdmissionController, BatchingConfig, CapacityModel,
                         SLO, Servable, Server, TrafficGenerator,
                         adversarial_trace, calibrate_service_model,
                         compare_prediction, poisson_trace)
from repro.serve.capacity import (LATENCY_ERROR_BOUND,
                                  THROUGHPUT_ERROR_BOUND)

BASE_S = 0.005
PER_ROW_S = 0.0005
INPUT_DIM = 8
NUM_CLASSES = 5


class SleepServable(Servable):
    """A servable whose forward cost is exactly the affine law."""

    def __init__(self):
        self.manifest = {"name": "sleepy"}
        self.path = None
        self.class_names = [f"c{i}" for i in range(NUM_CLASSES)]
        self.dtype = np.dtype(np.float64)
        self.fingerprint = "sleepy-v1"

    @property
    def num_classes(self) -> int:
        return NUM_CLASSES

    @property
    def input_dim(self) -> int:
        return INPUT_DIM

    def predict_proba(self, features, batch_size=None):
        rows = np.atleast_2d(np.asarray(features))
        time.sleep(BASE_S + PER_ROW_S * len(rows))
        return np.full((len(rows), NUM_CLASSES), 1.0 / NUM_CLASSES)

    def describe(self) -> dict:
        return {"name": "sleepy", "base_s": BASE_S, "per_row_s": PER_ROW_S}


def check(label: str, condition: bool, detail: str) -> None:
    print(f"  {'PASS' if condition else 'FAIL'}: {label} ({detail})")
    if not condition:
        raise AssertionError(f"{label}: {detail}")


def main() -> int:
    cpus = len(os.sched_getaffinity(0))
    print(f"capacity smoke: {cpus} CPU(s) available to this process")
    servable = SleepServable()

    # 1. Calibration recovers the known law.
    print("calibrating against the live servable...")
    service = calibrate_service_model(servable.predict_proba,
                                      input_dim=INPUT_DIM,
                                      batch_sizes=(1, 4, 16), repeats=3,
                                      probe_requests=128)
    print(f"  fitted s(B) = {service.base_s * 1e3:.3f} ms "
          f"+ {service.per_row_s * 1e3:.4f} ms/row "
          f"(truth {BASE_S * 1e3:.1f} + {PER_ROW_S * 1e3:.2f}), "
          f"overhead {service.overhead_s * 1e6:.0f} us/req")
    check("calibration recovers base cost",
          abs(service.base_s - BASE_S) / BASE_S < 0.5,
          f"fitted {service.base_s * 1e3:.3f} ms vs true {BASE_S * 1e3:.1f} ms")
    check("calibration recovers per-row cost",
          abs(service.per_row_s - PER_ROW_S) / PER_ROW_S < 0.5,
          f"fitted {service.per_row_s * 1e3:.4f} ms vs true "
          f"{PER_ROW_S * 1e3:.2f} ms")

    model = CapacityModel(service, cpus=cpus)
    config = BatchingConfig(max_batch_size=16, max_latency_ms=2.0,
                            cache_size=0)
    capacity = model.capacity(config)
    print(f"predicted capacity at batch 16: {capacity:.0f} req/s")

    # 2. Light-load predictions within the documented bounds.
    rate = 0.35 * capacity
    prediction = model.predict(config, rate)
    print(f"light load ({rate:.0f} req/s): predicted "
          f"p50 {prediction.p50_ms:.1f} ms, p99 {prediction.p99_ms:.1f} ms")
    with Server(batching=config) as server:
        server.register("default", servable)
        generator = TrafficGenerator(server, seed=0)
        report = generator.run(poisson_trace(rate, 3.0, seed=1),
                               deadline_ms=1000.0)
    errors = compare_prediction(report, prediction)
    print(f"  observed: {report.throughput():.0f} req/s, "
          f"p50 {report.p50_ms():.1f} ms, p99 {report.p99_ms():.1f} ms")
    check("no failed requests under light load",
          report.ok == report.sent, f"{report.summary()}")
    check("light-load throughput within bound",
          errors["throughput_rel_error"] < THROUGHPUT_ERROR_BOUND,
          f"rel error {errors['throughput_rel_error']:.3f} "
          f"< {THROUGHPUT_ERROR_BOUND}")
    check("light-load p50 within bound",
          errors["p50_rel_error"] < LATENCY_ERROR_BOUND,
          f"rel error {errors['p50_rel_error']:.3f} < {LATENCY_ERROR_BOUND}")
    check("light-load p99 within bound",
          errors["p99_rel_error"] < LATENCY_ERROR_BOUND,
          f"rel error {errors['p99_rel_error']:.3f} < {LATENCY_ERROR_BOUND}")
    check("zero deadline-violating responses (light load)",
          report.deadline_violations() == 0,
          f"{report.deadline_violations()} late successes")

    # 3. Saturated throughput lands at predicted capacity.
    with Server(batching=config) as server:
        server.register("default", servable)
        generator = TrafficGenerator(server, seed=0)
        saturated = generator.run(poisson_trace(2.0 * capacity, 1.0, seed=2))
    observed = saturated.throughput()
    rel = abs(observed - capacity) / capacity
    print(f"saturated (2x capacity open loop): served {observed:.0f} req/s "
          f"vs predicted {capacity:.0f} req/s (rel error {rel:.3f})")
    check("saturated throughput within bound",
          rel < THROUGHPUT_ERROR_BOUND,
          f"rel error {rel:.3f} < {THROUGHPUT_ERROR_BOUND}")

    # 4. The autotuned config meets its SLO in a live run.
    slo = SLO(p99_ms=80.0)
    tuned, tuned_prediction = model.autotune(slo, arrival_rate=0.25 * capacity)
    print(f"autotune for p99 <= {slo.p99_ms:.0f} ms at "
          f"{0.25 * capacity:.0f} req/s -> batch {tuned.max_batch_size}, "
          f"window {tuned.max_latency_ms} ms "
          f"(predicted p99 {tuned_prediction.p99_ms:.1f} ms)")
    with Server(batching=tuned) as server:
        server.register("default", servable)
        generator = TrafficGenerator(server, seed=0)
        tuned_report = generator.run(
            poisson_trace(0.25 * capacity, 3.0, seed=3), deadline_ms=1000.0)
    print(f"  observed p99 {tuned_report.p99_ms():.1f} ms over "
          f"{tuned_report.sent} requests")
    check("autotuned config meets its SLO live",
          tuned_report.ok == tuned_report.sent
          and tuned_report.p99_ms() <= slo.p99_ms,
          f"observed p99 {tuned_report.p99_ms():.1f} ms <= {slo.p99_ms:.0f} ms")

    # 5. Admission control sheds adversarial overload as 429s, and what is
    #    served still meets its deadline.
    admission = AdmissionController(model, config, max_delay_ms=100.0)
    with Server(batching=config, admission=admission) as server:
        server.register("default", servable)
        generator = TrafficGenerator(server, seed=0)
        storm = generator.run(
            adversarial_trace(3.0 * capacity, 1.2, spike_every_s=0.3, seed=4),
            deadline_ms=400.0)
        stats = server.stats()["default@1"]
    summary = storm.summary()
    print(f"adversarial storm (3x capacity, spikes): {summary}")
    check("admission shed part of the storm (429)",
          storm.count("overloaded") > 0, f"{storm.count('overloaded')} shed")
    check("admitted traffic was served",
          storm.ok > 0, f"{storm.ok} served")
    check("zero deadline-violating responses (storm)",
          storm.deadline_violations() == 0,
          f"{storm.deadline_violations()} late successes")
    check("every arrival accounted for",
          sum(storm.count(o) for o in
              ("ok", "expired", "overloaded", "shed", "rejected", "error"))
          == storm.sent, f"{summary}")
    check("batcher counters conserve accepted traffic",
          stats["requests"] == stats["served"] + stats["expired"]
          + stats["shed"] + stats["errors"], f"{stats}")

    print("capacity smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
