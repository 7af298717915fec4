"""Tests for schema-v2 ensemble artifacts and the ServableEnsemble."""

import json
import os
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.modules.base import Taglet
from repro.nn import default_dtype
from repro.serve import (ArtifactError, BatchingConfig, SCHEMA_VERSION,
                         Servable, ServableEnsemble, ServableModel, Server,
                         export_end_model, export_ensemble, load_servable,
                         read_manifest)
from repro.serve.artifact import (FORMAT_END_MODEL, FORMAT_ENSEMBLE,
                                  MANIFEST_NAME)
from repro.serve.batching import run_at_quantum

from .conftest import CLASS_NAMES, NUM_CLASSES, make_end_model, make_ensemble


def quantized_offline_votes(ensemble, features, quantum):
    """Offline ``TagletEnsemble`` voting at the serving batch quantum."""
    return run_at_quantum(
        lambda rows: ensemble.predict_proba(rows, batch_size=None),
        np.asarray(features, dtype=np.float64), quantum)


class TestExport:
    def test_manifest_layout(self, ensemble_dir, ensemble):
        manifest = read_manifest(ensemble_dir)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["format"] == FORMAT_ENSEMBLE
        assert manifest["class_names"] == CLASS_NAMES
        assert manifest["num_members"] == len(ensemble.taglets)
        assert manifest["metrics"]["test_accuracy"] == 0.87
        kinds = [entry["kind"] for entry in manifest["members"]]
        assert kinds == ["model", "model", "zsl_kg"]
        assert manifest["members"][-1]["logit_scale"] == 3.0
        for entry in manifest["members"]:
            assert os.path.exists(os.path.join(ensemble_dir,
                                               entry["weights_file"]))
            assert {"shape", "dtype"} <= set(
                next(iter(entry["weights"].values())))

    def test_member_names_preserved(self, servable_ensemble, ensemble):
        members = servable_ensemble.describe()["members"]
        assert [member["name"] for member in members] == ensemble.names

    def test_rejects_non_model_taglet(self, tmp_path):
        class OpaqueTaglet(Taglet):
            def predict_proba(self, features, batch_size=256):
                return np.full((len(features), NUM_CLASSES), 1 / NUM_CLASSES)

        from repro.ensemble import TagletEnsemble
        with pytest.raises(TypeError, match="model-backed"):
            export_ensemble(TagletEnsemble([OpaqueTaglet("opaque")]),
                            str(tmp_path / "bad"), class_names=CLASS_NAMES)

    def test_rejects_class_name_mismatch(self, tmp_path, ensemble):
        with pytest.raises(ValueError, match="class names"):
            export_ensemble(ensemble, str(tmp_path / "bad"),
                            class_names=["just_one"])

    def test_bare_ensemble_requires_class_names(self, tmp_path, ensemble):
        with pytest.raises(ValueError, match="class_names"):
            export_ensemble(ensemble, str(tmp_path / "bad"))


class TestRoundTrip:
    def test_loads_as_servable_ensemble(self, servable_ensemble, ensemble):
        assert isinstance(servable_ensemble, ServableEnsemble)
        assert isinstance(servable_ensemble, Servable)
        assert servable_ensemble.num_members == len(ensemble.taglets)
        assert servable_ensemble.num_classes == NUM_CLASSES

    def test_full_batch_votes_bit_identical_to_offline(self, servable_ensemble,
                                                       ensemble, features):
        offline = ensemble.predict_proba(features, batch_size=None)
        served = servable_ensemble.predict_proba(features)
        assert np.array_equal(served, offline)

    def test_quantized_votes_bit_identical_to_offline(self, servable_ensemble,
                                                      ensemble, features):
        offline = quantized_offline_votes(ensemble, features, 16)
        quantized = servable_ensemble.predict_proba(features, batch_size=16)
        assert np.array_equal(quantized, offline)

    def test_float32_members_round_trip(self, tmp_path, features):
        with default_dtype("float32"):
            ensemble = make_ensemble(seed=300)
            offline = ensemble.predict_proba(
                np.asarray(features, dtype=np.float32), batch_size=None)
            path = export_ensemble(ensemble, str(tmp_path / "f32"),
                                   class_names=CLASS_NAMES)
        servable = load_servable(path)
        manifest = read_manifest(path)
        assert {entry["dtype"] for entry in manifest["members"]} == {"float32"}
        # Votes are float64 (Eq. 6 runs in float64 offline too) even though
        # every member forward runs in float32.
        served = servable.predict_proba(features)
        assert served.dtype == np.float64
        assert np.array_equal(served, offline)

    def test_fingerprint_covers_the_serving_recipe(self, tmp_path, features):
        """The fingerprint identifies what a vote is a function of, so an
        ensemble re-exported with only a retuned logit_scale (identical
        member weights) must fingerprint differently."""
        from repro.ensemble import TagletEnsemble
        from repro.modules.zsl_kg import ZslKgTaglet

        from .conftest import make_model

        model = make_model(seed=700)
        paths = []
        for scale in (2.0, 4.0):
            ensemble = TagletEnsemble([ZslKgTaglet("zsl_kg", model,
                                                   logit_scale=scale)])
            path = str(tmp_path / f"scale-{scale}")
            export_ensemble(ensemble, path, class_names=CLASS_NAMES)
            paths.append(path)
        first, second = (load_servable(p) for p in paths)
        # Same weights, different recipe -> different votes, so the
        # fingerprints must differ.
        assert first.fingerprint != second.fingerprint
        assert not np.array_equal(first.predict_proba(features[:4]),
                                  second.predict_proba(features[:4]))

    def test_describe_is_json_serializable(self, servable_ensemble):
        description = servable_ensemble.describe()
        assert json.dumps(description)
        assert description["format"] == FORMAT_ENSEMBLE
        assert description["num_members"] == 3
        assert description["fingerprint"] == servable_ensemble.fingerprint


class TestSchemaCompat:
    def test_schema_v1_end_model_still_loads(self, artifact_dir, features):
        """Schema-1 artifacts (pre-ensemble exports) must keep loading."""
        manifest_path = os.path.join(artifact_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["schema_version"] == SCHEMA_VERSION
        manifest["schema_version"] = 1           # what old exports wrote
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        servable = load_servable(artifact_dir)
        assert isinstance(servable, ServableModel)
        assert servable.predict_proba(features).shape == (len(features),
                                                          NUM_CLASSES)

    def test_unknown_schema_version_rejected(self, ensemble_dir):
        manifest_path = os.path.join(ensemble_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = SCHEMA_VERSION + 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="schema version"):
            load_servable(ensemble_dir)

    def test_ensemble_under_schema_v1_rejected(self, ensemble_dir):
        manifest_path = os.path.join(ensemble_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="schema version 2"):
            load_servable(ensemble_dir)

    def test_missing_member_key_rejected(self, ensemble_dir):
        manifest_path = os.path.join(ensemble_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["members"][1]["weights_digest"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="member 1"):
            load_servable(ensemble_dir)

    def test_unknown_member_kind_rejected(self, ensemble_dir):
        manifest_path = os.path.join(ensemble_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["members"][0]["kind"] = "mystery"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="unknown\\s+kind"):
            load_servable(ensemble_dir)

    def test_zsl_member_without_logit_scale_rejected(self, ensemble_dir):
        """A zsl_kg member missing its logit scale would silently serve
        un-scaled votes; the manifest must be rejected instead."""
        manifest_path = os.path.join(ensemble_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["members"][-1]["kind"] == "zsl_kg"
        del manifest["members"][-1]["logit_scale"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="logit_scale"):
            load_servable(ensemble_dir)

    def test_tampered_member_weights_fail_digest(self, ensemble_dir):
        manifest = read_manifest(ensemble_dir)
        weights_path = os.path.join(ensemble_dir,
                                    manifest["members"][0]["weights_file"])
        archive = np.load(weights_path)
        tampered = {name: archive[name].copy() for name in archive.files}
        first = next(iter(tampered))
        tampered[first] = tampered[first] + 1.0
        np.savez(weights_path, **tampered)
        with pytest.raises(ArtifactError, match="digest"):
            load_servable(ensemble_dir)

    def test_end_model_artifacts_unchanged_by_v2(self, tmp_path, features):
        """An end model exported under schema 2 reads exactly like before."""
        path = export_end_model(make_end_model(seed=5), str(tmp_path / "em"),
                                class_names=CLASS_NAMES)
        manifest = read_manifest(path)
        assert manifest["schema_version"] == 2
        assert manifest["format"] == FORMAT_END_MODEL
        assert isinstance(load_servable(path), ServableModel)


class TestServedEnsemble:
    """The registry, server, and HTTP endpoint serve ``ensemble@version``
    references exactly like end models."""

    @pytest.fixture()
    def server(self, ensemble_dir, artifact_dir):
        app = Server(batching=BatchingConfig(max_batch_size=16,
                                             max_latency_ms=20))
        app.load("ensemble", ensemble_dir)
        app.load("default", artifact_dir)
        yield app
        app.close()

    def test_served_bit_identical_to_offline_voting(self, server, ensemble,
                                                    features):
        """The acceptance criterion: served ensemble predictions are
        bit-identical to offline ``TagletEnsemble`` voting at the serving
        batch quantum."""
        offline = quantized_offline_votes(ensemble, features, 16)
        futures = [server.submit(row, model="ensemble") for row in features]
        served = np.stack([f.result(timeout=30) for f in futures])
        assert np.array_equal(served, offline)

    def test_predict_response(self, server, servable_ensemble, features):
        response = server.predict(features[:3], model="ensemble@1",
                                  return_probabilities=True)
        assert response["model"] == "ensemble"
        expected = servable_ensemble.predict_proba(features[:3],
                                                   batch_size=16)
        assert response["predictions"] == expected.argmax(axis=1).tolist()
        assert np.array_equal(np.asarray(response["probabilities"]), expected)

    def test_wrong_width_fails_alone_on_the_ensemble(self, server, features):
        with pytest.raises(ValueError, match="features per row"):
            server.predict(np.ones(5), model="ensemble")
        # The batcher is still healthy afterwards.
        assert server.predict(features[0], model="ensemble")["predictions"]

    def test_http_round_trip(self, server, ensemble, features, serve):
        _, port = serve(server)
        body = json.dumps({"model": "ensemble", "priority": 3,
                           "inputs": features[:4].tolist(),
                           "return_probabilities": True}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/predict", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read())
        offline = quantized_offline_votes(ensemble, features[:4], 16)
        assert np.array_equal(np.asarray(payload["probabilities"]),
                              offline)
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/models", timeout=10) as r:
            models = json.loads(r.read())
        summary = models["ensemble"]["versions"]["1"]
        assert summary["format"] == FORMAT_ENSEMBLE
        assert summary["num_members"] == 3


class TestControllerHook:
    """``ControllerConfig.export_ensemble_path`` — train-to-deploy for the
    whole ensemble (quality-over-latency deployments)."""

    def test_hook_exports_a_loadable_ensemble(self, trained_export):
        result, split, path = trained_export
        servable = load_servable(path + "-ensemble")
        assert isinstance(servable, ServableEnsemble)
        assert [member["name"] for member in servable.describe()["members"]] \
            == result.ensemble.names

    def test_served_bit_identical_to_pipeline_ensemble(self, trained_export):
        result, split, path = trained_export
        servable = load_servable(path + "-ensemble")
        offline = quantized_offline_votes(result.ensemble,
                                          split.test_features, 32)
        served = servable.predict_proba(split.test_features, batch_size=32)
        assert np.array_equal(served, offline)

    def test_manifest_records_ensemble_accuracy(self, trained_export):
        result, split, path = trained_export
        manifest = read_manifest(path + "-ensemble")
        offline = result.ensemble_accuracy(split.test_features,
                                           split.test_labels)
        assert manifest["metrics"]["test_accuracy"] == pytest.approx(offline)
        assert manifest["task_name"] == result.task_name
