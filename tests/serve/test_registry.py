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


class TestImmutableVersions:
    def test_a_registered_version_keeps_its_servable(self, tmp_path):
        registry = ModelRegistry()
        first = make_servable(tmp_path, 0, "a")
        registry.register("fmd", first)
        with pytest.raises(ValueError, match="already has version"):
            registry.register("fmd", make_servable(tmp_path, 1, "b"),
                              version="1")
        assert registry.resolve("fmd@1")[2] is first
        assert len(registry) == 1

    def test_a_refused_registration_leaves_latest_alone(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        registry.register("fmd", make_servable(tmp_path, 1, "b"))
        registry.set_latest("fmd", "1")
        with pytest.raises(ValueError):
            registry.register("fmd", make_servable(tmp_path, 2, "c"),
                              version="2")
        assert registry.resolve("fmd")[1] == "1"
        assert registry.manifest() == ["fmd@1", "fmd@2"]


class TestModelNotFound:
    def test_is_a_lookup_error_not_a_key_error(self):
        assert issubclass(ModelNotFound, LookupError)
        assert not issubclass(ModelNotFound, KeyError)

    def test_text_is_the_message_through_every_hop(self, tmp_path):
        registry = ModelRegistry()
        registry.register("fmd", make_servable(tmp_path, 0, "a"))
        with pytest.raises(ModelNotFound) as caught:
            registry.resolve("fmd@7")
        message = "model 'fmd' has no version '7'; available: ['1']"
        assert str(caught.value) == message
        assert str(ModelNotFound(str(ModelNotFound(message)))) == message


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

    def test_in_flight_future_keeps_its_version(self, tmp_path):
        """A request queued on ``fmd@1`` resolves with version 1's exact
        bits after ``fmd@2`` becomes latest; the next request gets 2."""
        s1 = make_servable(tmp_path, 0, "a")
        s2 = make_servable(tmp_path, 10, "b")
        probe = np.random.default_rng(0).normal(size=(2, s1.input_dim))
        with Server(batching=BatchingConfig(max_latency_ms=20,
                                            cache_size=0)) as server:
            server.register("fmd", s1)
            future = server.submit(probe, model="fmd")
            assert server.register("fmd", s2) == "2"
            after = server.predict(probe, model="fmd",
                                   return_probabilities=True)
            assert np.array_equal(future.result(timeout=10),
                                  s1.predict_proba(probe, batch_size=32))
        assert after["version"] == "2"
        assert np.array_equal(np.asarray(after["probabilities"]),
                              s2.predict_proba(probe, batch_size=32))
