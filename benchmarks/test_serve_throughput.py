"""Serving-layer benchmark: micro-batched vs unbatched request throughput.

Prints request latency (p50/p99) and throughput (the committed
``BENCH_serve.json`` is a frozen record of earlier runs) for the same
concurrent client workload served

* unbatched — ``max_batch_size=1``, one fused forward per request (what a
  naive serving loop does), and
* micro-batched — ``max_batch_size=32``, requests fused into shared
  forwards by the :class:`~repro.serve.MicroBatcher`,

plus the LRU prediction-cache hot path, a served 3-member taglet
*ensemble* (the quality-over-latency deployment; one request costs three
member forwards), and the **multi-process fleet** rows:
the same artifact behind the routing front end, 1 vs 2 worker processes
driven over real HTTP (``fleet_http_*``).  Acceptance: batched throughput
≥ 3× unbatched at batch 32; fleet-of-2 ≥ 1.8× fleet-of-1 on multi-core
hosts (informational on 1-CPU, where the ratio is recorded alongside
``fleet_cpus``); and served probabilities bit-identical to the offline
``EndModel.predict_proba`` / ``TagletEnsemble`` voting on the same inputs
at the serving quantum.

Run with ``pytest benchmarks/test_serve_throughput.py`` (the ``bench``
marker keeps it out of tier-1).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from _bench_lib import print_bench_row

from repro.backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from repro.distill import EndModel
from repro.ensemble import TagletEnsemble
from repro.modules.base import ModelTaglet
from repro.serve import (BatchingConfig, FleetConfig, RouterConfig, Server,
                         ServingFleet, export_end_model, export_ensemble,
                         load_servable, replicated_specs)
from repro.serve.batching import run_at_quantum

#: The end model's architecture: the production-scale backbone shape of the
#: engine benchmark (BENCH_engine.json's backbone_shaped row) — serving is
#: measured at the size the paper actually deploys, a full backbone, not the
#: reduced task-sized one the test workspace trains.
SPEC = BackboneSpec(name="resnet50", input_dim=64, hidden_dims=(128, 128),
                    feature_dim=64, pretraining="imagenet1k-analog")
NUM_CLASSES = 10
NUM_REQUESTS = 2048
NUM_CLIENTS = 8
REPEATS = 3
#: the multi-process rows go through real HTTP (serialize + socket + route),
#: so they use a smaller request count than the in-process rows
FLEET_REQUESTS = 512
FLEET_REPEATS = 2


NUM_MEMBERS = 3


def _make_model(seed: int) -> ClassificationModel:
    encoder = Encoder(SPEC, rng=np.random.default_rng(seed))
    return ClassificationModel(encoder, NUM_CLASSES,
                               rng=np.random.default_rng(seed + 1))


def _make_artifact(tmp_path) -> str:
    path = str(tmp_path / "bench-artifact")
    export_end_model(EndModel(_make_model(0)), path,
                     class_names=[f"c{i}" for i in range(NUM_CLASSES)])
    return path


def _make_ensemble(tmp_path):
    ensemble = TagletEnsemble([ModelTaglet(f"member_{i}",
                                           _make_model(10 + 2 * i))
                               for i in range(NUM_MEMBERS)])
    path = str(tmp_path / "bench-ensemble")
    export_ensemble(ensemble, path,
                    class_names=[f"c{i}" for i in range(NUM_CLASSES)])
    return ensemble, path


def _drive(artifact: str, config: BatchingConfig, inputs: np.ndarray) -> dict:
    """Serve ``inputs`` as single-example requests under saturation.

    Open-loop heavy-traffic shape: ``NUM_CLIENTS`` producer threads submit
    their requests as fast as the server accepts them; per-request latency
    is submit → future-resolution (so it includes queueing delay — the cost
    an overloaded unbatched server actually imposes on its callers).
    """
    server = Server(batching=config)
    server.register("bench", load_servable(artifact))
    submitted = np.zeros(len(inputs))
    completed = np.zeros(len(inputs))
    futures: list = [None] * len(inputs)
    errors: list = []

    def client(indices):
        try:
            for i in indices:
                submitted[i] = time.perf_counter()
                future = server.submit(inputs[i], model="bench")
                futures[i] = future
                future.add_done_callback(
                    lambda _f, i=i: completed.__setitem__(i, time.perf_counter()))
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=client,
                                args=(range(k, len(inputs), NUM_CLIENTS),))
               for k in range(NUM_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for future in futures:
        future.result(timeout=120)
    elapsed = time.perf_counter() - start
    # result() can return before the done-callbacks have all run (futures
    # notify waiters first); wait until every completion timestamp landed
    # so no latency is computed against a zero.
    deadline = time.perf_counter() + 30
    while not completed.all():
        if time.perf_counter() > deadline:  # pragma: no cover - bench guard
            raise AssertionError("completion callbacks did not all fire")
        time.sleep(0.001)
    stats = server.stats()["bench@1"]
    server.close()
    assert not errors, errors
    latencies = completed - submitted
    return {
        "requests": len(inputs),
        "clients": NUM_CLIENTS,
        "throughput_req_per_sec": round(len(inputs) / elapsed, 1),
        "latency_p50_ms": round(float(np.percentile(latencies, 50)) * 1000, 3),
        "latency_p99_ms": round(float(np.percentile(latencies, 99)) * 1000, 3),
        "mean_batch_size": stats["mean_batch_size"],
        "cache_hits": stats["cache_hits"],
    }


def _drive_fleet(artifact: str, replicas: int, inputs: np.ndarray) -> dict:
    """Serve ``inputs`` through a fleet of worker *processes* via the router.

    Unlike :func:`_drive` (in-process futures), every request here crosses a
    real process boundary — JSON serialization, a socket hop, routing — so
    the single-replica fleet row is the honest HTTP baseline and the
    replicas-vs-1 ratio isolates what process-level parallelism buys.
    """
    specs = replicated_specs([("bench", artifact)], replicas)
    config = FleetConfig(
        batching=BatchingConfig(max_batch_size=32, max_latency_ms=2,
                                cache_size=0),
        router=RouterConfig(health_interval=0.5))
    latencies = np.zeros(len(inputs))
    errors: list = []
    with ServingFleet(specs, config) as fleet:

        def client(indices):
            try:
                for i in indices:
                    begin = time.perf_counter()
                    fleet.router.predict(inputs[i], model="bench")
                    latencies[i] = time.perf_counter() - begin
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=client,
                                    args=(range(k, len(inputs), NUM_CLIENTS),))
                   for k in range(NUM_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    assert not errors, errors
    return {
        "replicas": replicas,
        "requests": len(inputs),
        "clients": NUM_CLIENTS,
        "throughput_req_per_sec": round(len(inputs) / elapsed, 1),
        "latency_p50_ms": round(float(np.percentile(latencies, 50)) * 1000, 3),
        "latency_p99_ms": round(float(np.percentile(latencies, 99)) * 1000, 3),
    }


def test_serve_throughput(tmp_path):
    artifact = _make_artifact(tmp_path)
    servable = load_servable(artifact)
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(NUM_REQUESTS, SPEC.input_dim))

    # Acceptance: serving never changes a prediction — served probabilities
    # are bit-identical to offline inference at the same batch quantum, and
    # match full-batch offline inference to BLAS round-off (different gemm
    # row counts reduce in different orders; see BatchingConfig).
    offline = servable.predict_proba(inputs, batch_size=32)
    with Server(batching=BatchingConfig(max_batch_size=32,
                                        cache_size=0)) as check:
        check.load("bench", artifact)
        futures = [check.submit(row, model="bench") for row in inputs[:256]]
        served = np.stack([f.result(timeout=60) for f in futures])
    assert np.array_equal(served, offline[:256])
    assert np.allclose(offline, servable.predict_proba(inputs),
                       rtol=1e-12, atol=1e-14)

    # Warm-up, then measure both configurations on identical workloads
    # (best of REPEATS — the shared single CPU is noisy; the maximum
    # throughput is the least-perturbed observation of each path).
    _drive(artifact, BatchingConfig(max_batch_size=32, max_latency_ms=2,
                                    cache_size=0), inputs[:256])

    def best_of(config, artifact=artifact) -> dict:
        runs = [_drive(artifact, config, inputs) for _ in range(REPEATS)]
        return max(runs, key=lambda run: run["throughput_req_per_sec"])

    # The naive baseline: one forward per request.
    unbatched = best_of(BatchingConfig(max_batch_size=1, cache_size=0))
    batched = best_of(BatchingConfig(max_batch_size=32, max_latency_ms=2,
                                     cache_size=0))
    # The cache hot path: every request repeats one of 32 distinct inputs.
    hot = _drive(artifact,
                 BatchingConfig(max_batch_size=32, max_latency_ms=2,
                                cache_size=1024),
                 inputs[rng.integers(0, 32, size=NUM_REQUESTS)])

    # The served taglet ensemble (quality over latency): every request
    # costs NUM_MEMBERS member forwards plus the vote average, so its
    # throughput bounds at ~1/NUM_MEMBERS of the end model's.
    ensemble, ensemble_path = _make_ensemble(tmp_path)
    ensemble_offline = run_at_quantum(
        lambda rows: ensemble.predict_proba(rows, batch_size=None),
        inputs[:256], 32)
    with Server(batching=BatchingConfig(max_batch_size=32,
                                        cache_size=0)) as check:
        check.load("bench", ensemble_path)
        futures = [check.submit(row, model="bench") for row in inputs[:256]]
        ensemble_served = np.stack([f.result(timeout=120) for f in futures])
    assert np.array_equal(ensemble_served, ensemble_offline)
    ensemble_row = best_of(BatchingConfig(max_batch_size=32,
                                          max_latency_ms=2, cache_size=0),
                           artifact=ensemble_path)
    ensemble_row["members"] = NUM_MEMBERS

    # Multi-process fleet rows: the same artifact behind the routing front
    # end, 1 worker process vs 2, driven over real HTTP.  The 2-vs-1 ratio
    # is what process-level scaling buys past the GIL: >= 1.8x expected on
    # multi-core hosts, ~1x (informational) on the 1-CPU reference
    # container where two processes share one core.
    cpus = len(os.sched_getaffinity(0))
    fleet_inputs = inputs[:FLEET_REQUESTS]

    def best_fleet(replicas: int) -> dict:
        runs = [_drive_fleet(artifact, replicas, fleet_inputs)
                for _ in range(FLEET_REPEATS)]
        return max(runs, key=lambda run: run["throughput_req_per_sec"])

    fleet1 = best_fleet(1)
    fleet2 = best_fleet(2)
    fleet_ratio = (fleet2["throughput_req_per_sec"]
                   / fleet1["throughput_req_per_sec"])

    speedup = (batched["throughput_req_per_sec"]
               / unbatched["throughput_req_per_sec"])
    payload = {
        "workload": (f"{NUM_REQUESTS} single-example requests from "
                     f"{NUM_CLIENTS} client threads, end model "
                     f"{SPEC.input_dim}->{list(SPEC.hidden_dims)}->"
                     f"{NUM_CLASSES}; ensemble = {NUM_MEMBERS} such members, "
                     f"renormalized vote average"),
        "unbatched_batch1": unbatched,
        "microbatched_batch32": batched,
        "cached_hot_requests": hot,
        "ensemble_batch32": ensemble_row,
        "batched_vs_unbatched_throughput": round(speedup, 2),
        "fleet_http_1_process": fleet1,
        "fleet_http_2_processes": fleet2,
        "fleet2_vs_1_throughput": round(fleet_ratio, 2),
        "fleet_cpus": cpus,
        "served_bit_identical_to_offline": True,
        "ensemble_bit_identical_to_offline_voting": True,
    }
    print_bench_row("serve_throughput", payload)
    print(f"\nserving: unbatched {unbatched['throughput_req_per_sec']}/s -> "
          f"batched {batched['throughput_req_per_sec']}/s ({speedup:.2f}x), "
          f"cache-hot {hot['throughput_req_per_sec']}/s, ensemble "
          f"{ensemble_row['throughput_req_per_sec']}/s, fleet-over-HTTP "
          f"{fleet1['throughput_req_per_sec']}/s -> "
          f"{fleet2['throughput_req_per_sec']}/s "
          f"({fleet_ratio:.2f}x, {cpus} CPU(s))")
    assert speedup >= 3.0, (
        f"micro-batching must be >=3x unbatched throughput, got {speedup:.2f}x")
    assert hot["cache_hits"] > 0
    if cpus > 1:
        # The tentpole bar — only meaningful where two worker processes can
        # actually run in parallel; on a 1-CPU host the ratio is recorded
        # as informational (two processes time-slicing one core).
        assert fleet_ratio >= 1.8, (
            f"a 2-process fleet must be >=1.8x a 1-process fleet on a "
            f"multi-core host ({cpus} CPUs), got {fleet_ratio:.2f}x")
