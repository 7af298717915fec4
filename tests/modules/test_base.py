"""Tests for the module/taglet base abstractions."""

import numpy as np
import pytest

from repro.backbones.backbone import ClassificationModel
from repro.datasets import ClassSpec
from repro.modules.base import ModelTaglet, ModuleInput, Taglet
from repro.scads.query import AuxiliarySelection


def make_input(num_labeled=4, num_classes=2, dim=8, backbone=None):
    rng = np.random.default_rng(0)
    empty = AuxiliarySelection(features=np.zeros((0, dim)),
                               labels=np.zeros(0, dtype=np.int64), concepts=[])
    return ModuleInput(
        classes=[ClassSpec(f"c{i}", f"c{i}") for i in range(num_classes)],
        labeled_features=rng.normal(size=(num_labeled, dim)),
        labeled_labels=rng.integers(0, num_classes, size=num_labeled),
        unlabeled_features=rng.normal(size=(6, dim)),
        auxiliary=empty, backbone=backbone, seed=0)


class TestModuleInput:
    def test_properties(self):
        data = make_input()
        assert data.num_classes == 2
        assert data.class_names == ["c0", "c1"]
        data.validate()

    def test_validation_errors(self):
        data = make_input()
        data.labeled_labels = np.array([5] * len(data.labeled_features))
        with pytest.raises(ValueError):
            data.validate()

        empty = make_input(num_labeled=0)
        empty.labeled_labels = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            empty.validate()


class TestTaglet:
    def test_model_taglet_predicts_probabilities(self, tiny_backbone):
        model = ClassificationModel.from_backbone(tiny_backbone, num_classes=3,
                                                  rng=np.random.default_rng(0))
        taglet = ModelTaglet("test", model)
        features = np.random.default_rng(1).normal(size=(7, tiny_backbone.input_dim))
        probs = taglet.predict_proba(features)
        assert probs.shape == (7, 3)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7))
        assert taglet.predict(features).shape == (7,)

    def test_accuracy_on_empty(self, tiny_backbone):
        model = ClassificationModel.from_backbone(tiny_backbone, num_classes=3)
        taglet = ModelTaglet("test", model)
        assert taglet.accuracy(np.zeros((0, tiny_backbone.input_dim)),
                               np.zeros(0)) == 0.0

    def test_accuracy_refuses_labels_that_do_not_match_the_rows(
            self, tiny_backbone):
        # One label per row: a single label must not broadcast over rows.
        model = ClassificationModel.from_backbone(tiny_backbone, num_classes=3,
                                                  rng=np.random.default_rng(0))
        taglet = ModelTaglet("test", model)
        features = np.random.default_rng(1).normal(
            size=(7, tiny_backbone.input_dim))
        labels = np.arange(7) % 3
        assert taglet.accuracy(features, labels) == float(
            (taglet.predict(features) == labels).mean())
        with pytest.raises(ValueError, match="expected 7 targets"):
            taglet.accuracy(features, labels[:1])

    def test_base_taglet_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Taglet("abstract").predict_proba(np.zeros((1, 2)))
