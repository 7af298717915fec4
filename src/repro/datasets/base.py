"""Target-task dataset abstractions and the split/shot protocol.

A :class:`TargetDataset` is the full pool of examples for one of the paper's
evaluation tasks.  :func:`make_split` applies the protocol of Appendix A.2:

1. hold out a fixed number of test images per class using the split seed
   (unless the dataset ships a predetermined test set, like Grocery Store),
2. label a fixed number of train images per class (the "shots"),
3. treat the remaining train images as the unlabeled pool.

The same split seed drives both steps, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["ClassSpec", "TargetDataset", "TaskSplit", "make_split"]


@dataclass(frozen=True)
class ClassSpec:
    """A target class and how it maps into the knowledge graph.

    ``concept`` is the SCADS concept the class aligns to; ``None`` marks an
    out-of-vocabulary class (e.g. ``oatghurt``), in which case ``anchors``
    lists the existing concepts a new node should be linked to.
    """

    name: str
    concept: Optional[str] = None
    anchors: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.concept is None and not self.anchors:
            raise ValueError(
                f"class {self.name!r} is out-of-vocabulary but has no anchor concepts")


@dataclass
class TargetDataset:
    """A full evaluation task: class specs, train pool, and (optional) test set."""

    name: str
    classes: List[ClassSpec]
    domain: str
    features: np.ndarray
    labels: np.ndarray
    test_features: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels disagree on length")
        if self.labels.size and self.labels.max() >= len(self.classes):
            raise ValueError("labels reference classes beyond the class list")
        has_test = self.test_features is not None
        if has_test != (self.test_labels is not None):
            raise ValueError("test_features and test_labels must be provided together")
        if has_test:
            self.test_features = np.asarray(self.test_features, dtype=np.float64)
            self.test_labels = np.asarray(self.test_labels, dtype=np.int64)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]

    @property
    def has_predetermined_test(self) -> bool:
        return self.test_features is not None


@dataclass
class TaskSplit:
    """One labeled/unlabeled/test split of a target dataset."""

    dataset_name: str
    classes: List[ClassSpec]
    shots: int
    split_seed: int
    labeled_features: np.ndarray
    labeled_labels: np.ndarray
    unlabeled_features: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> List[str]:
        return [c.name for c in self.classes]


def _per_class_indices(labels: np.ndarray, num_classes: int) -> List[np.ndarray]:
    return [np.flatnonzero(labels == c) for c in range(num_classes)]


def make_split(dataset: TargetDataset, shots: int, split_seed: int,
               test_per_class: int = 10) -> TaskSplit:
    """Create a labeled/unlabeled/test split following Appendix A.2.

    Parameters
    ----------
    dataset:
        The full task.
    shots:
        Number of labeled examples per class (1, 5, or 20 in the paper).
    split_seed:
        Seed controlling both the train/test partition and which train images
        get labels (``split 0/1/2`` in the paper's tables).
    test_per_class:
        Held-out test images per class, ignored when the dataset ships a
        predetermined test set.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(split_seed)
    num_classes = dataset.num_classes

    if dataset.has_predetermined_test:
        train_features, train_labels = dataset.features, dataset.labels
        test_features, test_labels = dataset.test_features, dataset.test_labels
    else:
        train_idx: List[int] = []
        test_idx: List[int] = []
        for cls_indices in _per_class_indices(dataset.labels, num_classes):
            if len(cls_indices) <= test_per_class:
                raise ValueError(
                    f"class with {len(cls_indices)} examples cannot hold out "
                    f"{test_per_class} test images")
            permuted = rng.permutation(cls_indices)
            test_idx.extend(permuted[:test_per_class].tolist())
            train_idx.extend(permuted[test_per_class:].tolist())
        train_idx_arr = np.asarray(train_idx)
        test_idx_arr = np.asarray(test_idx)
        train_features, train_labels = (dataset.features[train_idx_arr],
                                        dataset.labels[train_idx_arr])
        test_features, test_labels = (dataset.features[test_idx_arr],
                                      dataset.labels[test_idx_arr])

    labeled_idx: List[int] = []
    unlabeled_idx: List[int] = []
    for cls_indices in _per_class_indices(train_labels, num_classes):
        if len(cls_indices) < shots:
            raise ValueError(
                f"a class has only {len(cls_indices)} train images, cannot label "
                f"{shots} shots")
        permuted = rng.permutation(cls_indices)
        labeled_idx.extend(permuted[:shots].tolist())
        unlabeled_idx.extend(permuted[shots:].tolist())

    labeled_idx_arr = np.asarray(labeled_idx)
    unlabeled_idx_arr = np.asarray(unlabeled_idx)
    return TaskSplit(
        dataset_name=dataset.name,
        classes=list(dataset.classes),
        shots=shots,
        split_seed=split_seed,
        labeled_features=train_features[labeled_idx_arr],
        labeled_labels=train_labels[labeled_idx_arr],
        unlabeled_features=train_features[unlabeled_idx_arr],
        test_features=test_features,
        test_labels=test_labels,
    )
