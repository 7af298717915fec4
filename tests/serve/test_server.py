"""Tests for the Server front end and the JSON/HTTP endpoint."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import BatchingConfig, Server


@pytest.fixture()
def server(artifact_dir):
    # A generous latency window so concurrent test clients reliably fuse
    # into shared batches even on a slow single-CPU runner.
    app = Server(batching=BatchingConfig(max_batch_size=16, max_latency_ms=20))
    app.load("default", artifact_dir)
    yield app
    app.close()


class TestServerApi:
    def test_predict_response_shape(self, server, servable, features):
        response = server.predict(features[:3], return_probabilities=True)
        assert response["model"] == "default"
        assert response["version"] == "1"
        assert response["predictions"] == servable.predict(features[:3]).tolist()
        assert response["labels"] == [
            servable.class_names[i] for i in servable.predict(features[:3])]
        assert np.array_equal(np.asarray(response["probabilities"]),
                              servable.predict_proba(features[:3]))

    def test_single_example_request(self, server, servable, features):
        response = server.predict(features[0])
        assert len(response["predictions"]) == 1
        assert response["predictions"][0] == int(servable.predict(features[:1])[0])

    def test_submit_returns_probability_future(self, server, servable, features):
        future = server.submit(features[:5])
        assert np.array_equal(future.result(timeout=10),
                              servable.predict_proba(features[:5]))

    def test_served_bit_identical_to_offline(self, server, end_model,
                                             servable, features):
        """The acceptance criterion: serving never changes a prediction.

        Served rows are bit-identical to offline inference at the serving
        batch quantum (every forward runs at exactly ``max_batch_size``
        rows), and match the end model's full-batch offline probabilities
        to BLAS round-off.
        """
        quantized = servable.predict_proba(features, batch_size=16)
        futures = [server.submit(row) for row in features]
        served = np.stack([f.result(timeout=10) for f in futures])
        assert np.array_equal(served, quantized)
        offline = end_model.predict_proba(features, batch_size=None)
        assert np.allclose(served, offline, rtol=1e-12, atol=1e-14)
        assert np.array_equal(served.argmax(axis=1), offline.argmax(axis=1))

    def test_unknown_model(self, server, features):
        from repro.serve import ModelNotFound
        with pytest.raises(ModelNotFound):
            server.predict(features[:1], model="ghost")

    def test_stats_and_describe(self, server, features):
        server.predict(features[:2])
        stats = server.stats()
        assert stats["default@1"]["requests"] >= 1
        description = server.describe()
        assert json.dumps(description)
        assert description["batching"]["max_batch_size"] == 16

    def test_wrong_feature_width_fails_alone(self, server, servable,
                                             features):
        """Regression: a malformed request used to poison every batch-mate
        fused with it; now it fails alone at submit."""
        offline = servable.predict_proba(features, batch_size=16)
        results = [None] * len(features)
        errors = []

        def client(i):
            try:
                results[i] = server.submit(features[i]).result(timeout=30)
            except Exception as error:  # pragma: no cover - reporting
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(features))]
        for thread in threads:
            thread.start()
        # A malformed request lands while valid traffic is in flight...
        with pytest.raises(ValueError, match="features per row"):
            server.predict(np.ones(99))
        for thread in threads:
            thread.join(timeout=60)
        # ...and every valid request still resolved, bit-identically.
        assert not errors
        assert np.array_equal(np.stack(results), offline)
        assert server.stats()["default@1"]["rejected"] == 1

    def test_priority_and_deadline_are_plumbed(self, server, features):
        from repro.serve import DeadlineExceeded

        response = server.predict(features[:1], priority=5,
                                  deadline_ms=60_000)
        assert len(response["predictions"]) == 1
        with pytest.raises(DeadlineExceeded):
            server.predict(features[:1], deadline_ms=-1)

    def test_closed_server_rejects_requests(self, artifact_dir, features):
        from repro.serve import ShuttingDown

        app = Server()
        app.load("default", artifact_dir)
        app.close()
        with pytest.raises(ShuttingDown, match="closed"):
            app.predict(features[:1])
        assert app.health()["status"] == "closed"


class TestHealthAndDrain:
    def test_health_reports_queue_workers_and_manifest(self, server,
                                                       features):
        server.predict(features[:1])    # instantiate the batcher
        health = server.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["workers"] == {"alive": 1, "expected": 1}
        assert health["models"] == ["default@1"]

    def test_draining_flag_is_advisory(self, server, features):
        server.set_draining(True)
        health = server.health()
        assert health["status"] == "draining"
        assert health["draining"] is True
        # Advisory only: in-flight and even new requests still answer —
        # it is the *router* that stops sending new traffic here.
        assert server.predict(features[:2])["version"] == "1"
        server.set_draining(False)
        assert server.health()["status"] == "ok"


class TestHotSwapRacingRequests:
    def test_swap_racing_requests_old_or_new_never_mixed(self, tmp_path,
                                                         features):
        """The hot-swap contract at the request level: while ``m@latest``
        is repointed under continuous traffic, every response is the old
        OR the new version's bit-exact output — never an error, never a
        row from a batch that mixed weights."""
        import time

        from repro.serve import export_end_model, load_servable

        from .conftest import CLASS_NAMES, make_end_model

        quantum = 8
        old_path = str(tmp_path / "v1")
        new_path = str(tmp_path / "v2")
        export_end_model(make_end_model(seed=0), old_path,
                         class_names=CLASS_NAMES)
        export_end_model(make_end_model(seed=5), new_path,
                         class_names=CLASS_NAMES)
        old = load_servable(old_path).predict_proba(features,
                                                    batch_size=quantum)
        new = load_servable(new_path).predict_proba(features,
                                                    batch_size=quantum)
        assert not np.array_equal(old, new)

        app = Server(batching=BatchingConfig(max_batch_size=quantum,
                                             max_latency_ms=1, cache_size=0))
        app.load("m", old_path)
        errors, bad_rows = [], []
        versions_seen = set()
        stop = threading.Event()

        def client():
            i = 0
            while not stop.is_set():
                i = (i + 1) % len(features)
                try:
                    response = app.predict(features[i], model="m",
                                           return_probabilities=True)
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)
                    continue
                row = np.asarray(response["probabilities"][0])
                versions_seen.add(response["version"])
                expected = old if response["version"] == "1" else new
                if not np.array_equal(row, expected[i]):
                    bad_rows.append(i)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.05)
            assert app.load("m", new_path) == "2"   # the racing swap
            time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        try:
            assert not errors, errors[:3]
            assert not bad_rows
            # After the swap, 'm' resolves to the new weights...
            final = app.predict(features[0], model="m",
                                return_probabilities=True)
            assert final["version"] == "2"
            assert np.array_equal(np.asarray(final["probabilities"][0]),
                                  new[0])
            # ...and the old version stays addressable explicitly.
            pinned = app.predict(features[0], model="m@1",
                                 return_probabilities=True)
            assert np.array_equal(np.asarray(pinned["probabilities"][0]),
                                  old[0])
        finally:
            app.close()


class TestOneBatcherPerVersion:
    """A registered version never changes, so the batcher built on its
    first request serves it, cache and counters included, until close."""

    @pytest.fixture()
    def two_versions(self, tmp_path):
        from repro.serve import export_end_model, load_servable

        from .conftest import CLASS_NAMES, make_end_model

        servables = []
        for tag, seed in (("v1", 0), ("v2", 5)):
            path = str(tmp_path / tag)
            export_end_model(make_end_model(seed=seed), path,
                             class_names=CLASS_NAMES)
            servables.append(load_servable(path))
        return servables

    def test_a_new_version_leaves_the_old_batcher_in_place(self, two_versions,
                                                           features):
        from repro.serve import MicroBatcher

        with Server() as app:
            app.register("m", two_versions[0])
            app.predict(features[:1], model="m")
            first = app._batchers[("m", "1")]
            app.register("m", two_versions[1])
            assert app.predict(features[:1], model="m")["version"] == "2"
            assert app.predict(features[:1], model="m@1")["version"] == "1"
            assert app._batchers[("m", "1")] is first
            assert set(app._batchers) == {("m", "1"), ("m", "2")}
            assert all(type(batcher) is MicroBatcher
                       for batcher in app._batchers.values())

    def test_the_old_version_keeps_its_cache_after_a_swap(self, two_versions,
                                                          features):
        probe = features[:2]
        with Server(batching=BatchingConfig(cache_size=8)) as app:
            app.register("m", two_versions[0])
            before = app.submit(probe, model="m").result(timeout=10)
            app.register("m", two_versions[1])
            pinned = app.submit(probe, model="m@1").result(timeout=10)
            latest = app.submit(probe, model="m").result(timeout=10)
            stats = app.stats()
        assert np.array_equal(pinned, before)
        assert stats["m@1"]["cache_hits"] == 1
        assert stats["m@2"]["cache_hits"] == 0
        assert np.array_equal(latest, two_versions[1].predict_proba(probe))

    def test_stats_are_each_batchers_own(self, two_versions, features):
        with Server() as app:
            app.register("m", two_versions[0])
            app.register("m", two_versions[1])
            app.predict(features[:1], model="m@1")
            app.predict(features[:1], model="m@1")
            app.predict(features[:1], model="m@2")
            # ``served`` moves just after a future resolves: stop the
            # batchers first so both reads see final counters.
            for batcher in app._batchers.values():
                batcher.close()
            stats = app.stats()
            own = {f"m@{version}": app._batchers[("m", version)].stats()
                   for version in ("1", "2")}
        assert stats == own
        assert stats["m@1"]["requests"] == 2
        assert stats["m@2"]["requests"] == 1

    def test_health_counts_one_worker_per_used_version(self, two_versions,
                                                       features):
        with Server() as app:
            app.register("m", two_versions[0])
            app.register("m", two_versions[1])
            app.predict(features[:1], model="m@1")
            health = app.health()
            assert health["workers"] == {"alive": 1, "expected": 1}
            app.predict(features[:1], model="m")
            health = app.health()
        assert health["workers"] == {"alive": 2, "expected": 2}
        assert health["models"] == ["m@2", "m@1"]

    def test_close_stops_every_versions_batcher(self, two_versions,
                                                features):
        app = Server()
        app.register("m", two_versions[0])
        app.register("m", two_versions[1])
        app.predict(features[:1], model="m@1")
        app.predict(features[:1], model="m@2")
        batchers = list(app._batchers.values())
        app.close()
        assert len(batchers) == 2
        assert not any(batcher.is_alive() for batcher in batchers)
        assert app.health()["workers"] == {"alive": 0, "expected": 0}


class TestHttpEndpoint:
    @pytest.fixture()
    def endpoint(self, server, serve):
        _, port = serve(server)
        return f"http://127.0.0.1:{port}"

    def _post(self, url, payload, timeout=10):
        """POST ``payload`` as JSON; ``bytes`` are sent as the raw body."""
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        request = urllib.request.Request(
            f"{url}/predict", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())

    def test_health_models_stats(self, endpoint, features):
        with urllib.request.urlopen(f"{endpoint}/healthz", timeout=10) as r:
            health = json.loads(r.read())
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["models"] == ["default@1"]
        assert health["queue_depth"] == 0
        with urllib.request.urlopen(f"{endpoint}/models", timeout=10) as r:
            models = json.loads(r.read())
        assert models["default"]["latest"] == "1"
        # Regression: /stats returns the documented per-model batcher
        # counters (it used to leak the whole describe() payload).
        self._post(endpoint, {"inputs": features[:2].tolist()})
        with urllib.request.urlopen(f"{endpoint}/stats", timeout=10) as r:
            stats = json.loads(r.read())
        assert stats["default@1"]["requests"] >= 1
        assert "batching" not in stats
        # The full payload moved to /describe.
        with urllib.request.urlopen(f"{endpoint}/describe", timeout=10) as r:
            description = json.loads(r.read())
        assert "batching" in description and "stats" in description

    def test_predict_round_trip(self, endpoint, servable, features):
        response = self._post(endpoint, {"inputs": features[:4].tolist(),
                                         "return_probabilities": True})
        assert response["predictions"] == servable.predict(features[:4]).tolist()
        assert np.allclose(response["probabilities"],
                           servable.predict_proba(features[:4]))

    def test_concurrent_http_clients_fuse_into_batches(self, endpoint, server,
                                                       servable, features):
        offline = servable.predict_proba(features, batch_size=16)
        results = [None] * len(features)
        errors = []

        def client(i):
            try:
                results[i] = self._post(
                    endpoint, {"inputs": [features[i].tolist()],
                               "return_probabilities": True})
            except Exception as error:  # pragma: no cover - reporting
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(features))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        served = np.concatenate([np.asarray(r["probabilities"])
                                 for r in results])
        assert np.array_equal(served, offline)
        stats = server.stats()["default@1"]
        assert stats["batches"] < stats["requests"]  # genuinely micro-batched

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "missing 'inputs'"),
        ({"inputs": "not numbers"}, "numeric"),
        ({"inputs": []}, "non-empty"),
        ({"inputs": [1.0, 2.0]}, "features per row"),
        ({"inputs": [[1.0] * 24], "priority": "urgent"}, "priority"),
        ({"inputs": [[1.0] * 24], "deadline_ms": "soon"}, "deadline_ms"),
        # JSON parses 1e400 to inf; int(inf) raised OverflowError past the
        # handler and the client saw a dropped connection.
        ({"inputs": [[1.0] * 24], "priority": 1e400}, "priority"),
        ({"inputs": [[1.0] * 24], "priority": float("inf")}, "priority"),
        ({"inputs": [[1.0] * 24], "priority": float("nan")}, "priority"),
        ({"inputs": [[1.0] * 24], "priority": 1.5}, "priority"),
        # A NaN deadline was answered 200 as if none had been set.
        ({"inputs": [[1.0] * 24], "deadline_ms": float("nan")},
         "deadline_ms"),
        ({"inputs": [[1.0] * 24], "deadline_ms": float("inf")},
         "deadline_ms"),
        # An integer too large for a float raised OverflowError past the
        # handler and the client saw a dropped connection.
        ({"inputs": [[10 ** 400] * 24]}, "numeric"),
        # A 10 KB body nested 5 000 deep raised RecursionError in json.loads
        # past the handler, and the client saw a dropped connection.
        pytest.param(b'{"inputs": ' + b"[" * 5000 + b"]" * 5000 + b"}",
                     "nested too deeply", id="nested-too-deeply"),
        # An integer literal past Python's 4300-digit int-string limit
        # raised ValueError in json.loads past the handler, and the client
        # saw a dropped connection.
        pytest.param(b'{"inputs": [[1]], "priority": ' + b"9" * 5000 + b"}",
                     "invalid JSON body", id="oversized-integer-literal"),
        # The string "false" was read with bool() and returned
        # probabilities; a JSON true was taken as priority 1 and as a 1 ms
        # deadline.
        ({"inputs": [[1.0] * 24], "return_probabilities": "false"},
         "return_probabilities"),
        ({"inputs": [[1.0] * 24], "return_probabilities": 1},
         "return_probabilities"),
        ({"inputs": [[1.0] * 24], "priority": True}, "priority"),
        ({"inputs": [[1.0] * 24], "deadline_ms": True}, "deadline_ms"),
    ])
    def test_bad_requests_are_400(self, endpoint, payload, fragment):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(endpoint, payload)
        assert excinfo.value.code == 400
        assert fragment in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("flag,expected", [
        (True, True), (False, False), (None, False), ("absent", False)],
        ids=["true", "false", "null", "absent"])
    def test_return_probabilities_flag(self, endpoint, features, flag,
                                       expected):
        payload = {"inputs": features[:2].tolist(), "priority": None,
                   "deadline_ms": None}
        if flag != "absent":
            payload["return_probabilities"] = flag
        response = self._post(endpoint, payload)
        assert ("probabilities" in response) is expected

    @pytest.mark.parametrize("body", [[[1.0] * 24], "inputs", 42],
                             ids=["array", "string", "number"])
    def test_non_object_bodies_are_400(self, endpoint, body):
        # Regression: a JSON array body raised AttributeError in the
        # handler and the client saw a dropped connection.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(endpoint, body)
        assert excinfo.value.code == 400
        assert "must be an object" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")], ids=str)
    def test_non_finite_inputs_are_400(self, endpoint, server, features,
                                       value):
        # Regression: NaN/Inf rows were answered 200 with non-standard NaN
        # tokens, and the answer was cached.
        row = features[0].tolist()
        row[3] = value
        for _ in range(2):  # the second attempt must not hit a cache entry
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(endpoint, {"inputs": [row]})
            assert excinfo.value.code == 400
            assert "non-finite" in json.loads(excinfo.value.read())["error"]
        stats = server.stats()["default@1"]
        assert stats["rejected"] == 2
        assert stats["requests"] == 0

    def test_expired_deadline_is_504(self, endpoint, features):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(endpoint, {"inputs": features[:1].tolist(),
                                  "deadline_ms": -1})
        assert excinfo.value.code == 504
        assert "deadline" in json.loads(excinfo.value.read())["error"]

    def test_priority_and_deadline_accepted(self, endpoint, servable,
                                            features):
        response = self._post(endpoint, {"inputs": features[:2].tolist(),
                                         "priority": 7,
                                         "deadline_ms": 60000})
        assert response["predictions"] == servable.predict(
            features[:2]).tolist()
        # null means "unset" for both optional fields, symmetrically.
        response = self._post(endpoint, {"inputs": features[:2].tolist(),
                                         "priority": None,
                                         "deadline_ms": None})
        assert response["predictions"] == servable.predict(
            features[:2]).tolist()

    def test_unknown_model_is_404(self, endpoint, features):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(endpoint, {"model": "ghost",
                                  "inputs": features[:1].tolist()})
        assert excinfo.value.code == 404

    def test_unknown_path_is_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{endpoint}/nope", timeout=10)
        assert excinfo.value.code == 404


class TestAdminEndpoint:
    """The fleet worker's ``/admin/*`` control plane over HTTP."""

    @pytest.fixture()
    def admin(self, server, serve):
        _, port = serve(server, admin=True)
        return f"http://127.0.0.1:{port}"

    def _post(self, url, path, payload):
        request = urllib.request.Request(
            f"{url}{path}", data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    @pytest.mark.parametrize("flag,expected", [
        (True, True), (False, False), (None, True), ("absent", True)],
        ids=["true", "false", "null", "absent"])
    def test_drain_flag(self, admin, server, flag, expected):
        server.set_draining(not expected)
        payload = {} if flag == "absent" else {"draining": flag}
        assert self._post(admin, "/admin/drain", payload)["draining"] is \
            expected
        assert server.health()["draining"] is expected

    @pytest.mark.parametrize("flag,latest", [
        (True, "2"), (False, "1"), (None, "2")],
        ids=["true", "false", "null"])
    def test_load_make_latest(self, admin, server, artifact_dir, flag,
                              latest):
        response = self._post(admin, "/admin/load", {
            "name": "default", "path": artifact_dir, "make_latest": flag})
        assert response == {"name": "default", "version": "2"}
        assert server.models()["default"]["latest"] == latest

    @pytest.mark.parametrize("name,version", [
        ("a@b", None), ("other", ""), ("other", "1@2"), ("other", "latest")],
        ids=["at-in-name", "empty-version", "at-in-version", "reserved-version"])
    def test_load_refuses_unresolvable_names_and_versions(
            self, admin, server, artifact_dir, monkeypatch, name, version):
        import repro.serve.server as server_module

        # Refused before the artifact is read and digest-checked.
        loads = []
        real_load = server_module.load_servable
        monkeypatch.setattr(server_module, "load_servable",
                            lambda path: loads.append(path) or real_load(path))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(admin, "/admin/load", {
                "name": name, "path": artifact_dir, "version": version})
        assert excinfo.value.code == 400
        assert "ValueError: " in json.loads(excinfo.value.read())["error"]
        assert loads == []
        assert list(server.models()) == ["default"]

    def test_load_refuses_a_version_the_name_has_before_reading(
            self, admin, server, artifact_dir, monkeypatch):
        import repro.serve.server as server_module

        loads = []
        real_load = server_module.load_servable
        monkeypatch.setattr(server_module, "load_servable",
                            lambda path: loads.append(path) or real_load(path))
        assert server.load("m", artifact_dir, version="1") == "1"
        with pytest.raises(ValueError, match="already has version"):
            server.load("m", artifact_dir, version="1")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(admin, "/admin/load", {
                "name": "m", "path": artifact_dir, "version": "1"})
        assert excinfo.value.code == 400
        assert "already has version" in json.loads(
            excinfo.value.read())["error"]
        # Only the first load read and digest-checked the artifact.
        assert loads == [artifact_dir]
        assert list(server.models()["m"]["versions"]) == ["1"]

    @pytest.mark.parametrize("path,field,value", [
        # The string "false" was read with bool() and drained the worker.
        ("/admin/drain", "draining", "false"),
        ("/admin/drain", "draining", 0),
        ("/admin/drain", "draining", [True]),
        ("/admin/load", "make_latest", "false"),
        ("/admin/load", "make_latest", 1),
    ])
    def test_non_boolean_flags_are_400(self, admin, server, artifact_dir,
                                       path, field, value):
        payload = {field: value}
        if path == "/admin/load":
            payload.update(name="other", path=artifact_dir)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(admin, path, payload)
        assert excinfo.value.code == 400
        assert f"'{field}' must be true or false" in json.loads(
            excinfo.value.read())["error"]
        # Refused before acting: no drain flag set, no model loaded.
        assert server.health()["draining"] is False
        assert "other" not in server.models()
