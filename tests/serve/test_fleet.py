"""Multi-process fleet serving: routing, balancing, failure, hot swap.

Two layers of coverage:

* **Router unit tests** — least-outstanding/round-robin picking and
  reference resolution against hand-built replica tables, no processes.
* **Live fleet tests** — real ``multiprocessing`` worker processes behind
  the router, asserting the scale-out invariants: served predictions stay
  bit-identical to offline inference through routing, load balancing,
  replica death + retry, and rolling hot-swap; killing a replica under
  load causes zero client-visible request failures; the replacement comes
  back on the same port.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (BatchingConfig, FleetConfig, ModelNotFound,
                         Router, RouterConfig, ServingFleet,
                         export_end_model, load_servable, replicated_specs,
                         sharded_specs)

from .conftest import CLASS_NAMES, SPEC, make_end_model

QUANTUM = 16


def fast_fleet_config() -> FleetConfig:
    """Small quanta and tight probe intervals for quick, deterministic tests."""
    return FleetConfig(
        batching=BatchingConfig(max_batch_size=QUANTUM, max_latency_ms=1.0,
                                cache_size=0),
        router=RouterConfig(health_interval=0.1, probe_timeout=5.0,
                            request_timeout=30.0))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two versions of one model (different weights) plus a second model."""
    base = tmp_path_factory.mktemp("fleet-artifacts")
    paths = {}
    for key, seed in (("v1", 0), ("v2", 17), ("other", 42)):
        path = str(base / key)
        export_end_model(make_end_model(seed=seed), path,
                         class_names=CLASS_NAMES)
        paths[key] = path
    return paths


@pytest.fixture(scope="module")
def inputs():
    return np.random.default_rng(3).normal(size=(48, SPEC.input_dim))


def offline_proba(path: str, rows: np.ndarray) -> np.ndarray:
    return load_servable(path).predict_proba(rows, batch_size=QUANTUM)


# --------------------------------------------------------------------- #
# Router unit tests (no processes)
# --------------------------------------------------------------------- #
class TestRouterPicking:
    def _router_with(self, loads) -> Router:
        router = Router(RouterConfig())
        for replica_id, outstanding in loads.items():
            handle = router.add_replica(replica_id, "127.0.0.1", 1,
                                        models=["m"])
            handle.outstanding = outstanding
        return router

    def test_least_outstanding_wins(self):
        router = self._router_with({"a": 3, "b": 0, "c": 2})
        picked = router._pick("m", exclude=set())
        assert picked.id == "b"

    def test_round_robin_breaks_ties(self):
        # _pick increments outstanding, so release between picks to keep
        # the tie alive and observe pure rotation.
        router = self._router_with({"a": 0, "b": 0})
        seen = []
        for _ in range(4):
            handle = router._pick("m", exclude=set())
            seen.append(handle.id)
            router._release(handle)
        assert seen in (["a", "b", "a", "b"], ["b", "a", "b", "a"])

    def test_draining_and_unhealthy_excluded(self):
        router = self._router_with({"a": 0, "b": 5})
        router.set_draining("a", True)
        picked = router._pick("m", exclude=set())
        assert picked.id == "b"
        router._release(picked)
        router._note_transport_failure(picked)
        assert router._pick("m", exclude=set()) is None

    def test_shard_ownership_filters_candidates(self):
        router = Router(RouterConfig())
        router.add_replica("a", "127.0.0.1", 1, models=["left"])
        router.add_replica("b", "127.0.0.1", 2, models=["right"])
        assert router._pick("left", exclude=set()).id == "a"
        assert router._pick("right", exclude=set()).id == "b"
        assert router._pick("nowhere", exclude=set()) is None

    def test_unknown_model_raises_model_not_found(self):
        router = Router(RouterConfig(max_attempts=3, retry_backoff_ms=1))
        router.add_replica("a", "127.0.0.1", 1, models=["m"])
        with pytest.raises(ModelNotFound):
            router.predict(np.zeros(4), model="elsewhere")

    def test_respawned_replica_keeps_counters(self):
        router = Router(RouterConfig())
        handle = router.add_replica("a", "127.0.0.1", 1, models=["m"])
        handle.served = 7
        handle.transport_failures = 2
        replacement = router.add_replica("a", "127.0.0.1", 9, models=["m"])
        assert replacement.served == 7
        assert replacement.transport_failures == 2
        assert router.replica("a").port == 9


# --------------------------------------------------------------------- #
# Live fleets
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fleet(artifacts):
    """A 2-replica fleet serving ``m`` (v1 weights), shared read-only."""
    specs = replicated_specs([("m", artifacts["v1"])], 2)
    fleet = ServingFleet(specs, fast_fleet_config())
    fleet.start()
    yield fleet
    fleet.close()


class TestFleetServing:
    def test_bit_identical_to_offline_through_router(self, fleet, artifacts,
                                                     inputs):
        offline = offline_proba(artifacts["v1"], inputs)
        served = np.stack([
            np.asarray(fleet.router.predict(row, model="m",
                                            return_probabilities=True)
                       ["probabilities"][0])
            for row in inputs])
        assert np.array_equal(served, offline)

    def test_load_balances_across_replicas(self, fleet, inputs):
        before = {replica_id: fleet.router.replica(replica_id).served
                  for replica_id in fleet.replica_ids()}
        for row in inputs:
            fleet.router.predict(row, model="m")
        gained = {replica_id: fleet.router.replica(replica_id).served
                  - before[replica_id] for replica_id in before}
        assert sum(gained.values()) == len(inputs)
        assert all(count > 0 for count in gained.values()), gained

    def test_draining_replica_receives_no_new_requests(self, fleet, inputs):
        drained = fleet.replica_ids()[0]
        fleet.router.set_draining(drained, True)
        try:
            before = fleet.router.replica(drained).served
            for row in inputs[:12]:
                fleet.router.predict(row, model="m")
            assert fleet.router.replica(drained).served == before
        finally:
            fleet.router.set_draining(drained, False)

    def test_health_reports_fleet_and_manifest(self, fleet):
        health = fleet.health()
        assert health["status"] == "ok"
        assert sorted(health["replicas"]) == fleet.replica_ids()
        assert health["models"] == ["m@1"]

    def test_stats_aggregate_across_replicas(self, fleet, inputs):
        for row in inputs[:8]:
            fleet.router.predict(row, model="m")
        stats = fleet.stats()
        assert stats["m@1"]["requests"] >= 8
        router_stats = stats["_router"]
        assert router_stats["requests"] >= 8
        assert sorted(router_stats["replicas"]) == fleet.replica_ids()

    def test_http_front_end_same_client_api(self, fleet, artifacts, inputs,
                                            serve):
        _, port = serve(fleet.router)
        base = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
            health = json.loads(r.read())
        assert health["status"] == "ok" and len(health["replicas"]) == 2
        with urllib.request.urlopen(f"{base}/models", timeout=10) as r:
            assert "m" in json.loads(r.read())
        body = json.dumps({"model": "m", "inputs": inputs[:3].tolist(),
                           "return_probabilities": True}).encode()
        request = urllib.request.Request(
            f"{base}/predict", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as r:
            response = json.loads(r.read())
        offline = offline_proba(artifacts["v1"], inputs[:3])
        assert np.array_equal(np.asarray(response["probabilities"]),
                              offline)
        assert response["predictions"] == offline.argmax(axis=1).tolist()
        # The error mapping holds through the router: unknown -> 404,
        # malformed -> 400, and the admin plane is NOT exposed here.
        for payload, status in (
                ({"model": "missing", "inputs": [[0.0] * SPEC.input_dim]},
                 404),
                ({"model": "m", "inputs": [[1.0, 2.0]]}, 400)):
            request = urllib.request.Request(
                f"{base}/predict", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            with excinfo.value as error:
                assert error.code == status
        admin = urllib.request.Request(
            f"{base}/admin/drain", data=b"{}",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(admin, timeout=10)
        with excinfo.value as error:
            assert error.code == 404


class TestFleetResilience:
    def test_kill_replica_under_load_zero_client_failures(self, artifacts,
                                                          inputs):
        offline = offline_proba(artifacts["v1"], inputs)
        specs = replicated_specs([("m", artifacts["v1"])], 2)
        with ServingFleet(specs, fast_fleet_config()) as fleet:
            victim = fleet.replica_ids()[0]
            port_before = dict(fleet.addresses())[victim][1]
            errors: list = []
            mismatches: list = []
            killed = threading.Event()

            def client(indices):
                for i in indices:
                    try:
                        response = fleet.router.predict(
                            inputs[i], model="m", return_probabilities=True)
                        if not np.array_equal(
                                np.asarray(response["probabilities"][0]),
                                offline[i]):
                            mismatches.append(i)
                    except Exception as error:  # noqa: BLE001
                        errors.append((i, error))
                    if i == 8:
                        killed.set()

            def chaos():
                assert killed.wait(timeout=30)
                fleet.kill_replica(victim)

            threads = [threading.Thread(target=chaos)] + [
                threading.Thread(target=client,
                                 args=(range(k, len(inputs), 4),))
                for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            # The robustness bar: a replica dying under load is invisible
            # to clients — no failures, no changed bits.
            assert not errors, errors[:3]
            assert not mismatches
            # ...and the single respawn path replaced it on the SAME port.
            assert fleet.router.wait_healthy(2, timeout=30)
            assert dict(fleet.addresses())[victim][1] == port_before
            assert fleet.processes_alive() == {replica_id: True
                                               for replica_id
                                               in fleet.replica_ids()}
            assert fleet.router.replica(victim).respawns >= 1

    def test_sharded_fleet_partitions_model_space(self, artifacts, inputs):
        specs = sharded_specs([("left", artifacts["v1"]),
                               ("right", artifacts["other"])], 2)
        assert [spec.names() for spec in specs] == [["left"], ["right"]]
        with ServingFleet(specs, fast_fleet_config()) as fleet:
            left = offline_proba(artifacts["v1"], inputs[:4])
            right = offline_proba(artifacts["other"], inputs[:4])
            assert not np.array_equal(left, right)
            for name, expected in (("left", left), ("right", right)):
                served = np.stack([
                    np.asarray(fleet.router.predict(
                        row, model=name, return_probabilities=True)
                        ["probabilities"][0])
                    for row in inputs[:4]])
                assert np.array_equal(served, expected)
            with pytest.raises(ModelNotFound):
                fleet.router.predict(inputs[0], model="nowhere")


class TestRollingSwap:
    def test_swap_under_traffic_serves_old_or_new_never_errors(
            self, artifacts, inputs):
        """The hot-swap-racing-retries contract: while a rolling swap
        marches across the fleet, every request routed (or retried) onto a
        mid-swap replica gets the OLD or the NEW version's bit-exact
        output — never an error, never a mixed batch."""
        old = offline_proba(artifacts["v1"], inputs)
        new = offline_proba(artifacts["v2"], inputs)
        assert not np.array_equal(old, new)
        specs = replicated_specs([("m", artifacts["v1"])], 2)
        with ServingFleet(specs, fast_fleet_config()) as fleet:
            errors: list = []
            bad_rows: list = []
            versions_seen: set = set()
            stop = threading.Event()

            def client():
                i = 0
                while not stop.is_set():
                    i = (i + 1) % len(inputs)
                    try:
                        response = fleet.router.predict(
                            inputs[i], model="m", return_probabilities=True)
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        continue
                    row = np.asarray(response["probabilities"][0])
                    versions_seen.add(response["version"])
                    if not (np.array_equal(row, old[i])
                            or np.array_equal(row, new[i])):
                        bad_rows.append(i)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                swapped = fleet.rolling_swap("m", artifacts["v2"])
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
            assert not errors, errors[:3]
            assert not bad_rows
            assert set(swapped) == set(fleet.replica_ids())
            assert set(swapped.values()) == {"2"}
            # After the swap the whole fleet serves the new weights...
            served = np.stack([
                np.asarray(fleet.router.predict(row, model="m",
                                                return_probabilities=True)
                           ["probabilities"][0])
                for row in inputs[:8]])
            assert np.array_equal(served, new[:8])
            # ...and the old version stays addressable explicitly.
            pinned = fleet.router.predict(inputs[0], model="m@1",
                                          return_probabilities=True)
            assert np.array_equal(np.asarray(pinned["probabilities"][0]),
                                  old[0])
