"""Tests for the versioned model registry and hot swapping."""

import threading

import numpy as np
import pytest

from repro.serve import (BatchingConfig, ModelNotFound, ModelRegistry, Server,
                         export_end_model, load_servable, parse_reference)

from .conftest import CLASS_NAMES, make_end_model


def make_servable(tmp_path, seed, tag):
    path = str(tmp_path / f"artifact-{tag}")
    export_end_model(make_end_model(seed=seed), path, class_names=CLASS_NAMES)
    return load_servable(path)


class TestReferences:
    def test_parse_reference(self):
        assert parse_reference("fmd") == ("fmd", "latest")
        assert parse_reference("fmd@latest") == ("fmd", "latest")
        assert parse_reference("fmd@3") == ("fmd", "3")

    @pytest.mark.parametrize("bad", ["", "@2", None])
    def test_invalid_references(self, bad):
        with pytest.raises(ValueError):
            parse_reference(bad)


class TestCheckKey:
    @pytest.mark.parametrize("name,version", [
        ("", None), ("a@b", None), ("fmd", ""), ("fmd", "1@2"),
        ("fmd", "latest")],
        ids=["empty-name", "at-in-name", "empty-version", "at-in-version",
             "reserved-version"])
    def test_unresolvable_keys_raise(self, name, version):
        with pytest.raises(ValueError):
            ModelRegistry().check_key(name, version)

    def test_version_comes_back_as_a_string(self):
        assert ModelRegistry().check_key("fmd", 3) == "3"
        assert ModelRegistry().check_key("fmd", "2024.1") == "2024.1"

    def test_no_version_stays_none(self):
        assert ModelRegistry().check_key("fmd") is None

    def test_a_version_the_name_already_has_is_refused(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"), version="3")
        with pytest.raises(ValueError, match="already has version"):
            registry.check_key("fmd", 3)
        assert registry.check_key("fmd", 4) == "4"
        assert registry.check_key("other", 3) == "3"


class TestRegistry:
    def test_register_auto_versions_and_latest(self, tmp_path):
        registry = ModelRegistry()
        s1 = make_servable(tmp_path, 0, "a")
        s2 = make_servable(tmp_path, 1, "b")
        assert registry.register("fmd", s1) == "1"
        assert registry.register("fmd", s2) == "2"
        assert registry.versions("fmd") == ["1", "2"]
        assert registry.resolve("fmd")[1] == "2"
        assert registry.resolve("fmd")[1] == "2"
        assert registry.resolve("fmd@1")[2] is s1
        assert len(registry) == 2

    def test_explicit_versions_and_reserved_name(self, tmp_path):
        registry = ModelRegistry()
        servable = make_servable(tmp_path, 0, "a")
        assert registry.register("fmd", servable, version="2024.1") == "2024.1"
        with pytest.raises(ValueError, match="reserved"):
            registry.register("fmd", servable, version="latest")
        with pytest.raises(ValueError, match="already has version"):
            registry.register("fmd", servable, version="2024.1")

    @pytest.mark.parametrize("name,version", [
        ("", None), ("a@b", None), ("fmd", ""), ("fmd", "1@2")],
        ids=["empty-name", "at-in-name", "empty-version", "at-in-version"])
    def test_unresolvable_names_and_versions_are_refused(self, tmp_path,
                                                         name, version):
        # ``a@b`` would be listed as ``a@b@1`` and resolved as model ``a``;
        # an empty version would be shadowed by ``latest``.
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="invalid"):
            registry.register(name, make_servable(tmp_path, 0, "a"),
                              version=version)
        assert len(registry) == 0 and registry.describe() == {}

    def test_register_without_promotion(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        registry.register("fmd", make_servable(tmp_path, 1, "b"),
                          make_latest=False)
        assert registry.resolve("fmd")[1] == "1"

    def test_set_latest_rollback(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        registry.register("fmd", make_servable(tmp_path, 1, "b"))
        registry.set_latest("fmd", "1")
        assert registry.resolve("fmd@latest")[1] == "1"
        with pytest.raises(ModelNotFound):
            registry.set_latest("fmd", "9")

    def test_unregister(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        registry.register("fmd", make_servable(tmp_path, 1, "b"))
        registry.unregister("fmd", "2")
        assert registry.resolve("fmd")[1] == "1"
        registry.unregister("fmd")
        with pytest.raises(ModelNotFound):
            registry.resolve("fmd")

    def test_unknown_lookups(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFound):
            registry.resolve("ghost")
        with pytest.raises(ModelNotFound):
            registry.versions("ghost")
        assert "ghost" not in registry

    def test_describe_lists_every_version(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        description = registry.describe()
        assert description["fmd"]["latest"] == "1"
        assert "1" in description["fmd"]["versions"]


class TestHotSwap:
    def test_hot_swap_under_concurrent_requests(self, tmp_path):
        """Requests during a version swap all succeed, each answered
        exactly by one of the two versions — never dropped, never mixed."""
        s1 = make_servable(tmp_path, 0, "a")
        s2 = make_servable(tmp_path, 10, "b")
        rng = np.random.default_rng(5)
        probe = rng.normal(size=(4, s1.input_dim))
        expected = {"1": s1.predict_proba(probe), "2": s2.predict_proba(probe)}
        assert not np.array_equal(expected["1"], expected["2"])

        server = Server(batching=BatchingConfig(max_batch_size=8,
                                                max_latency_ms=1,
                                                cache_size=0))
        server.register("fmd", s1)

        errors, mismatches = [], []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    response = server.predict(probe, model="fmd@latest",
                                              return_probabilities=True,
                                              timeout=10)
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)
                    return
                got = np.asarray(response["probabilities"])
                want = expected[response["version"]]
                if not np.array_equal(got, want):
                    mismatches.append(response["version"])

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Swap back and forth while the clients hammer the endpoint.
        server.register("fmd", s2)   # version "2", promoted to latest
        for _ in range(20):
            server.registry.set_latest("fmd", "1")
            server.registry.set_latest("fmd", "2")
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        server.close()
        assert not errors
        assert not mismatches

    def test_reregistered_version_serves_the_new_weights(self, tmp_path):
        """unregister + register under the same version string must retire
        the old batcher — never serve the old weights or cache."""
        s1 = make_servable(tmp_path, 0, "a")
        s2 = make_servable(tmp_path, 10, "b")
        probe = np.random.default_rng(1).normal(size=(3, s1.input_dim))
        with Server(batching=BatchingConfig(max_latency_ms=1)) as server:
            server.register("fmd", s1, version="1")
            first = server.predict(probe, model="fmd@1",
                                   return_probabilities=True)
            server.registry.unregister("fmd", "1")
            server.register("fmd", s2, version="1")   # re-published weights
            second = server.predict(probe, model="fmd@1",
                                    return_probabilities=True)
        assert np.array_equal(np.asarray(first["probabilities"]),
                              s1.predict_proba(probe, batch_size=32))
        assert np.array_equal(np.asarray(second["probabilities"]),
                              s2.predict_proba(probe, batch_size=32))

    def test_in_flight_future_survives_unregister(self, tmp_path):
        servable = make_servable(tmp_path, 0, "a")
        server = Server(batching=BatchingConfig(max_latency_ms=20,
                                                cache_size=0))
        server.register("fmd", servable)
        probe = np.random.default_rng(0).normal(size=(2, servable.input_dim))
        future = server.submit(probe, model="fmd")
        server.registry.unregister("fmd")
        assert np.array_equal(future.result(timeout=10),
                              servable.predict_proba(probe))
        server.close()
