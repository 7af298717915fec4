"""Tests for the public Task API."""

import numpy as np
import pytest

from repro.core import Task
from repro.datasets import ClassSpec


class TestTaskConstruction:
    def test_from_arrays_with_string_classes(self, tiny_backbone):
        rng = np.random.default_rng(0)
        task = Task(name="demo", classes=["plastic", "stone"],
                    labeled_features=rng.normal(size=(4, tiny_backbone.input_dim)),
                    labeled_labels=np.array([0, 1, 0, 1]))
        assert task.num_classes == 2
        assert task.class_names == ["plastic", "stone"]
        assert all(isinstance(c, ClassSpec) for c in task.classes)
        assert len(task.unlabeled_features) == 0
        assert not task.has_test_set

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Task(name="bad", classes=[], labeled_features=np.zeros((1, 4)),
                 labeled_labels=np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            Task(name="bad", classes=["a"], labeled_features=np.zeros((0, 4)),
                 labeled_labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            Task(name="bad", classes=["a"], labeled_features=np.zeros((2, 4)),
                 labeled_labels=np.array([0, 3]))
        with pytest.raises(ValueError):
            Task(name="bad", classes=["a", "b"], labeled_features=np.zeros((2, 4)),
                 labeled_labels=np.array([0, 1]), input_shape=9)

    def test_backbone_handling(self, tiny_backbone):
        task = Task(name="demo", classes=["a", "b"],
                    labeled_features=np.zeros((2, tiny_backbone.input_dim)),
                    labeled_labels=np.array([0, 1]))
        with pytest.raises(RuntimeError):
            _ = task.backbone
        task.set_initial_model(tiny_backbone)
        assert task.backbone is tiny_backbone
        assert task.has_backbone

    def test_backbone_dimension_mismatch(self, tiny_backbone):
        task = Task(name="demo", classes=["a"],
                    labeled_features=np.zeros((1, tiny_backbone.input_dim + 1)),
                    labeled_labels=np.array([0]))
        with pytest.raises(ValueError):
            task.set_initial_model(tiny_backbone)

    def test_from_split(self, tiny_workspace, tiny_backbone, fmd_split):
        task = Task.from_split(fmd_split, scads=tiny_workspace.scads,
                               backbone=tiny_backbone)
        assert task.num_classes == 10
        assert task.has_test_set
        assert task.has_backbone
        assert len(task.labeled_features) == 50
        assert task.backbone.name == "resnet50"
