"""Fleet chaos smoke for CI: kill a serving worker mid-traffic, lose nothing.

Stands up a 2-process serving fleet (worker processes behind the routing
front end), fires concurrent client traffic through the router, SIGKILLs
one replica while requests are in flight, and fails if:

* any client request errors — replica death must be absorbed by the
  router's retry/failover path (plus the parent-held listening socket:
  connections parked in the backlog are answered by the replacement);
* any served probability row differs by one bit from offline inference at
  the serving quantum — routing, retries, and failovers must be invisible
  in the output;
* the killed replica does not respawn healthy on its original port — the
  single replacement-respawn path must restore full capacity.

All three checks are exact everywhere (no perf ratios involved); the
fleet *throughput* story lives in ``test_serve_throughput.py``.  Run with
``PYTHONPATH=src python benchmarks/fleet_smoke.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)

import numpy as np

from repro.backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from repro.distill import EndModel
from repro.serve import (BatchingConfig, FleetConfig, RouterConfig,
                         ServingFleet, export_end_model, load_servable,
                         replicated_specs)

SPEC = BackboneSpec(name="resnet50", input_dim=64, hidden_dims=(128, 128),
                    feature_dim=64, pretraining="imagenet1k-analog")
NUM_CLASSES = 10
NUM_REQUESTS = 400
NUM_CLIENTS = 4
QUANTUM = 32
KILL_AFTER = 40     # requests served before the SIGKILL lands


def main() -> int:
    cpus = len(os.sched_getaffinity(0))
    print(f"fleet smoke: {cpus} CPU(s) available to this process")

    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as tmp:
        artifact = os.path.join(tmp, "artifact")
        encoder = Encoder(SPEC, rng=np.random.default_rng(0))
        model = ClassificationModel(encoder, NUM_CLASSES,
                                    rng=np.random.default_rng(1))
        export_end_model(EndModel(model), artifact,
                         class_names=[f"c{i}" for i in range(NUM_CLASSES)])
        inputs = np.random.default_rng(2).normal(
            size=(NUM_REQUESTS, SPEC.input_dim))
        offline = load_servable(artifact).predict_proba(inputs,
                                                        batch_size=QUANTUM)

        config = FleetConfig(
            batching=BatchingConfig(max_batch_size=QUANTUM, max_latency_ms=2,
                                    cache_size=0),
            router=RouterConfig(health_interval=0.1))
        specs = replicated_specs([("smoke", artifact)], 2)
        print("spawning a 2-process fleet...")
        with ServingFleet(specs, config) as fleet:
            victim = fleet.replica_ids()[0]
            port_before = dict(fleet.addresses())[victim][1]
            errors: list = []
            mismatches: list = []
            served = threading.Semaphore(0)

            def client(indices):
                for i in indices:
                    try:
                        response = fleet.router.predict(
                            inputs[i], model="smoke",
                            return_probabilities=True)
                        row = np.asarray(response["probabilities"][0])
                        if not np.array_equal(row, offline[i]):
                            mismatches.append(i)
                    except Exception as error:  # noqa: BLE001
                        errors.append((i, error))
                    served.release()

            threads = [threading.Thread(target=client,
                                        args=(range(k, NUM_REQUESTS,
                                                    NUM_CLIENTS),))
                       for k in range(NUM_CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for _ in range(KILL_AFTER):
                served.acquire()
            print(f"SIGKILL {victim} after {KILL_AFTER} requests, "
                  f"traffic still flowing...")
            fleet.kill_replica(victim)
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - start

            respawned = fleet.router.wait_healthy(2, timeout=30)
            port_after = dict(fleet.addresses())[victim][1]
            alive = fleet.processes_alive()
            router_stats = fleet.stats()["_router"]
            print(f"{NUM_REQUESTS} requests in {elapsed:.2f}s "
                  f"({NUM_REQUESTS / elapsed:.0f}/s) — "
                  f"{len(errors)} failed, {len(mismatches)} wrong-bits, "
                  f"{router_stats['retries']} retries, "
                  f"{router_stats['failovers']} failovers")
            print(f"respawn: healthy={respawned} "
                  f"port {port_before}->{port_after} "
                  f"processes_alive={alive} "
                  f"respawns={fleet.router.replica(victim).respawns}")

            failures = []
            if errors:
                failures.append(f"{len(errors)} client request(s) failed: "
                                f"{errors[:3]}")
            if mismatches:
                failures.append(f"{len(mismatches)} served row(s) not "
                                f"bit-identical to offline")
            if not respawned:
                failures.append("killed replica did not respawn healthy")
            if port_after != port_before:
                failures.append(f"replica moved ports "
                                f"{port_before}->{port_after}")
            if not all(alive.values()):
                failures.append(f"dead worker process(es): {alive}")
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}")
                return 1
    print("fleet smoke OK: replica death was invisible to clients")
    return 0


if __name__ == "__main__":
    sys.exit(main())
