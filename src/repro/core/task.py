"""The user-facing description of a target task.

A :class:`Task` gathers everything TAGLETS needs to build a classifier: the
semantic description of the classes (names plus, where needed, anchors into
the knowledge graph), the limited labeled data, the unlabeled data, the SCADS
bundle to draw auxiliary data from, and the pretrained backbone to start
from.  The interface mirrors the artifact appendix of the paper
(``input_shape``, ``batch_size``, ``wanted_num_related_class``,
``set_initial_model``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..backbones.backbone import PretrainedBackbone
from ..datasets.base import ClassSpec, TaskSplit
from ..scads.builder import ScadsBundle

__all__ = ["Task"]


class Task:
    """A target classification task with its data and SCADS attachment."""

    def __init__(self, name: str,
                 classes: Sequence[Union[str, ClassSpec]],
                 labeled_features: np.ndarray,
                 labeled_labels: np.ndarray,
                 unlabeled_features: Optional[np.ndarray] = None,
                 scads: Optional[ScadsBundle] = None,
                 input_shape: Optional[int] = None,
                 batch_size: int = 128,
                 wanted_num_related_class: int = 5,
                 images_per_related_class: int = 30,
                 test_features: Optional[np.ndarray] = None,
                 test_labels: Optional[np.ndarray] = None):
        self.name = name
        self.classes: List[ClassSpec] = [
            c if isinstance(c, ClassSpec) else ClassSpec(name=c, concept=c)
            for c in classes]
        if not self.classes:
            raise ValueError("a task needs at least one class")

        self.labeled_features = np.asarray(labeled_features, dtype=np.float64)
        self.labeled_labels = np.asarray(labeled_labels, dtype=np.int64)
        if len(self.labeled_features) != len(self.labeled_labels):
            raise ValueError("labeled features/labels length mismatch")
        if len(self.labeled_features) == 0:
            raise ValueError("a task needs at least one labeled example")
        if self.labeled_labels.max() >= len(self.classes):
            raise ValueError("labels reference unknown classes")

        if unlabeled_features is None:
            unlabeled_features = np.zeros((0, self.labeled_features.shape[1]))
        self.unlabeled_features = np.asarray(unlabeled_features, dtype=np.float64)

        self.scads = scads
        self.input_shape = input_shape or self.labeled_features.shape[1]
        if self.labeled_features.shape[1] != self.input_shape:
            raise ValueError("labeled data does not match input_shape")
        self.batch_size = batch_size
        self.wanted_num_related_class = wanted_num_related_class
        self.images_per_related_class = images_per_related_class

        self.test_features = (np.asarray(test_features, dtype=np.float64)
                              if test_features is not None else None)
        self.test_labels = (np.asarray(test_labels, dtype=np.int64)
                            if test_labels is not None else None)

        self._backbone: Optional[PretrainedBackbone] = None

    # ------------------------------------------------------------------ #
    # Backbone selection (artifact-appendix API)
    # ------------------------------------------------------------------ #
    def set_initial_model(self, backbone: PretrainedBackbone) -> "Task":
        """Choose the pretrained backbone the modules and end model start from."""
        if backbone.input_dim != self.input_shape:
            raise ValueError(
                f"backbone expects inputs of dim {backbone.input_dim}, task provides "
                f"{self.input_shape}")
        self._backbone = backbone
        return self

    @property
    def backbone(self) -> PretrainedBackbone:
        if self._backbone is None:
            raise RuntimeError("no backbone set; call set_initial_model() first")
        return self._backbone

    @property
    def has_backbone(self) -> bool:
        return self._backbone is not None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    @property
    def has_test_set(self) -> bool:
        return self.test_features is not None and self.test_labels is not None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_split(cls, split: TaskSplit, scads: Optional[ScadsBundle] = None,
                   backbone: Optional[PretrainedBackbone] = None,
                   wanted_num_related_class: int = 5,
                   images_per_related_class: int = 30) -> "Task":
        """Build a task directly from a :class:`~repro.datasets.base.TaskSplit`."""
        task = cls(name=f"{split.dataset_name}-{split.shots}shot-split{split.split_seed}",
                   classes=split.classes,
                   labeled_features=split.labeled_features,
                   labeled_labels=split.labeled_labels,
                   unlabeled_features=split.unlabeled_features,
                   scads=scads,
                   wanted_num_related_class=wanted_num_related_class,
                   images_per_related_class=images_per_related_class,
                   test_features=split.test_features,
                   test_labels=split.test_labels)
        if backbone is not None:
            task.set_initial_model(backbone)
        return task
