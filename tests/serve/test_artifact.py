"""Tests for the versioned servable artifact format."""

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.nn import default_dtype, get_default_dtype
from repro.serve import (ArtifactError, SCHEMA_VERSION, export_end_model,
                         load_servable, read_manifest)
from repro.serve.artifact import FORMAT_ENSEMBLE, MANIFEST_NAME, WEIGHTS_NAME

from .conftest import CLASS_NAMES, NUM_CLASSES, SPEC, make_end_model


class TestExport:
    def test_writes_manifest_and_weights(self, artifact_dir):
        assert os.path.exists(os.path.join(artifact_dir, MANIFEST_NAME))
        assert os.path.exists(os.path.join(artifact_dir, WEIGHTS_NAME))

    def test_manifest_contents(self, artifact_dir):
        manifest = read_manifest(artifact_dir)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["format"] == "taglets-end-model"
        assert manifest["class_names"] == CLASS_NAMES
        assert manifest["num_classes"] == NUM_CLASSES
        assert manifest["backbone"]["name"] == SPEC.name
        assert manifest["backbone"]["hidden_dims"] == list(SPEC.hidden_dims)
        assert manifest["dtype"] == "float64"
        assert manifest["metrics"]["test_accuracy"] == 0.91
        assert manifest["num_parameters"] > 0
        # Every weight is described without opening the archive.
        assert set(manifest["weights"]) and all(
            {"shape", "dtype"} <= set(entry)
            for entry in manifest["weights"].values())

    def test_class_name_count_must_match(self, tmp_path, end_model):
        with pytest.raises(ValueError, match="class names"):
            export_end_model(end_model, str(tmp_path / "bad"),
                             class_names=["just_one"])

    def test_bare_end_model_requires_class_names(self, tmp_path, end_model):
        with pytest.raises(ValueError, match="class_names"):
            export_end_model(end_model, str(tmp_path / "bad"))

    def test_rejects_non_end_model(self, tmp_path):
        with pytest.raises(TypeError):
            export_end_model(object(), str(tmp_path / "bad"),
                             class_names=CLASS_NAMES)


class TestRoundTrip:
    def test_float64_predictions_bit_identical(self, end_model, servable,
                                               features):
        offline = end_model.predict_proba(features, batch_size=None)
        assert np.array_equal(servable.predict_proba(features), offline)
        assert np.array_equal(servable.predict(features),
                              offline.argmax(axis=1))

    def test_float32_round_trip(self, tmp_path, features):
        """Export/load under the float32 fast mode stays bit-identical."""
        with default_dtype("float32"):
            end_model = make_end_model(seed=3)
            offline = end_model.predict_proba(
                np.asarray(features, dtype=np.float32), batch_size=None)
            path = export_end_model(end_model, str(tmp_path / "f32"),
                                    class_names=CLASS_NAMES)
        servable = load_servable(path)
        assert servable.dtype == np.float32
        # Served from a float64-default process, the servable still runs
        # in its own dtype and reproduces offline float32 inference exactly.
        served = servable.predict_proba(features)
        assert served.dtype == np.float32
        assert np.array_equal(served, offline)

    def test_single_row_matches_batched_rows(self, servable, features):
        """The gemv/gemm split must not leak into served results."""
        full = servable.predict_proba(features)
        row = servable.predict_proba(features[:1])
        assert np.array_equal(row, full[:1])

    def test_describe_is_json_serializable(self, servable):
        description = servable.describe()
        assert json.dumps(description)
        assert description["fingerprint"] == servable.fingerprint


class TestConcurrentForward:
    """The leaf-chain forward runs on per-call buffers and no engine state."""

    def test_concurrent_threads_match_serial(self, tmp_path, features):
        # A float32 artifact served from 4 threads while the caller sits in
        # a float64 scope: the forward touches no dtype scope, so every
        # thread gets the serial bytes and the caller keeps its dtype.
        with default_dtype("float32"):
            path = export_end_model(make_end_model(seed=3),
                                    str(tmp_path / "f32"),
                                    class_names=CLASS_NAMES)
        servable = load_servable(path)
        batches = [features[:1], features[:7], features[:32], features]
        expected = [servable.predict_proba(rows) for rows in batches]
        mismatches, errors, seen_dtypes = [], [], set()
        start = threading.Barrier(len(batches) + 1, timeout=30)

        def client(i):
            try:
                start.wait()
                for _ in range(25):
                    served = servable.predict_proba(batches[i])
                    if (served.dtype != np.float32
                            or served.tobytes() != expected[i].tobytes()):
                        mismatches.append(i)
            except Exception as error:  # re-raised on the calling thread
                errors.append(error)

        # More threads than cores and a short switch interval, so the
        # clients' forwards interleave inside each other's dtype scopes.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with default_dtype("float64"):
                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(batches))]
                for thread in threads:
                    thread.start()
                start.wait()
                while any(thread.is_alive() for thread in threads):
                    seen_dtypes.add(get_default_dtype())
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert not mismatches
        assert seen_dtypes <= {np.float64}
        assert get_default_dtype() is np.float64


def _ensemble_manifest(members) -> bytes:
    """An ensemble manifest carrying every required key, with ``members``."""
    return json.dumps({"schema_version": 2, "format": FORMAT_ENSEMBLE,
                       "class_names": ["a", "b"],
                       "members": members}).encode("utf-8")


class TestValidation:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ArtifactError, match="no servable artifact"):
            load_servable(str(tmp_path / "nope"))

    def test_corrupt_manifest(self, artifact_dir):
        with open(os.path.join(artifact_dir, MANIFEST_NAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            load_servable(artifact_dir)

    @pytest.mark.parametrize("content", [
        b"[]",                                      # AttributeError on .get
        b'{"schema_version": "\xff\xfe"}',        # UnicodeDecodeError
        b'{"members": ' + b"[" * 5000 + b"]" * 5000 + b"}",   # RecursionError
        b'{"schema_version": ' + b"9" * 5000 + b"}",  # ValueError (int limit)
        _ensemble_manifest(5),                      # TypeError on iteration
        _ensemble_manifest([5]),                    # TypeError on ``in``
    ], ids=["not-an-object", "not-utf8", "nested-too-deeply",
            "oversized-integer-literal", "members-not-a-list",
            "member-not-an-object"])
    def test_tampered_manifest_is_an_artifact_error(self, artifact_dir,
                                                    content):
        with open(os.path.join(artifact_dir, MANIFEST_NAME), "wb") as handle:
            handle.write(content)
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            load_servable(artifact_dir)

    def test_unknown_schema_version(self, artifact_dir):
        manifest_path = os.path.join(artifact_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["schema_version"] = SCHEMA_VERSION + 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="schema version"):
            load_servable(artifact_dir)

    def test_missing_required_key(self, artifact_dir):
        manifest_path = os.path.join(artifact_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        del manifest["weights_digest"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="missing required keys"):
            load_servable(artifact_dir)

    def test_tampered_weights_fail_digest(self, artifact_dir):
        weights_path = os.path.join(artifact_dir, WEIGHTS_NAME)
        state = np.load(weights_path)
        tampered = {name: state[name].copy() for name in state.files}
        first = next(iter(tampered))
        tampered[first] = tampered[first] + 1.0
        np.savez(weights_path, **tampered)
        with pytest.raises(ArtifactError, match="digest"):
            load_servable(artifact_dir)

    def test_wrong_architecture_names_parameter(self, tmp_path, artifact_dir):
        """A weights/manifest mismatch fails with the offending key named."""
        manifest_path = os.path.join(artifact_dir, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["backbone"]["hidden_dims"] = [8]   # not what the weights hold
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="encoder.trunk"):
            load_servable(artifact_dir)


class TestPipelineExport:
    """The real train → export hook → load path (Controller.export_path)."""

    def test_served_bit_identical_to_offline_end_model(self, trained_export):
        result, split, path = trained_export
        servable = load_servable(path)
        offline = result.end_model.predict_proba(split.test_features,
                                                 batch_size=None)
        assert np.array_equal(servable.predict_proba(split.test_features),
                              offline)

    def test_manifest_records_task_metadata(self, trained_export):
        result, split, path = trained_export
        manifest = read_manifest(path)
        assert manifest["class_names"] == [c.name for c in split.classes]
        assert manifest["task_name"] == result.task_name
        offline_accuracy = result.end_model_accuracy(split.test_features,
                                                     split.test_labels)
        assert manifest["metrics"]["test_accuracy"] == pytest.approx(
            offline_accuracy)
