"""Dataset and data-loading utilities.

The TAGLETS pipeline juggles several sources of examples at once: the
limited labeled target set, the unlabeled target pool, auxiliary examples
retrieved from SCADS, and pseudo-labeled data for the distillation stage.
These primitives keep that bookkeeping explicit: labeled datasets yield
``(x, y)``, unlabeled datasets yield ``x``, and soft-labeled datasets yield
``(x, p)`` with probability-vector targets.  Every dataset is backed by
arrays, and :class:`DataLoader` cuts each batch out of them with one fancy
index, in an order drawn from the caller's seeded generator.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .tensor import get_default_dtype

__all__ = [
    "Dataset",
    "ArrayDataset",
    "UnlabeledDataset",
    "SoftLabeledDataset",
    "DataLoader",
    "train_test_indices",
]


class Dataset:
    """Array-backed dataset interface: a length, items, and whole batches."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def _batch_arrays(self, indices: np.ndarray):  # pragma: no cover - abstract
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Labeled dataset backed by an ``(n, d)`` feature array and integer labels."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=get_default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        if len(features) != len(labels):
            raise ValueError(
                f"features and labels disagree on length: {len(features)} vs {len(labels)}")
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.features[index], int(self.labels[index])

    def _batch_arrays(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.features[indices], self.labels[indices]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the full ``(features, labels)`` pair (no copy)."""
        return self.features, self.labels

    def class_counts(self) -> np.ndarray:
        if len(self.labels) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels)


class UnlabeledDataset(Dataset):
    """Unlabeled dataset over an ``(n, d)`` feature array."""

    def __init__(self, features: np.ndarray):
        self.features = np.asarray(features, dtype=get_default_dtype())

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.features[index]

    def _batch_arrays(self, indices: np.ndarray) -> np.ndarray:
        return self.features[indices]

    def arrays(self) -> np.ndarray:
        return self.features


class SoftLabeledDataset(Dataset):
    """Dataset of examples paired with probability-vector targets.

    Produced by the taglet ensemble (paper Eq. 6) and consumed by the end
    model's soft cross-entropy loss (Eq. 7).
    """

    def __init__(self, features: np.ndarray, soft_labels: np.ndarray):
        features = np.asarray(features, dtype=get_default_dtype())
        soft_labels = np.asarray(soft_labels, dtype=get_default_dtype())
        if len(features) != len(soft_labels):
            raise ValueError("features and soft_labels disagree on length")
        if soft_labels.ndim != 2:
            raise ValueError("soft_labels must be a 2-D probability matrix")
        self.features = features
        self.soft_labels = soft_labels

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.features[index], self.soft_labels[index]

    def _batch_arrays(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.features[indices], self.soft_labels[indices]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.features, self.soft_labels


class DataLoader:
    """Mini-batch iterator over a dataset in a freshly shuffled order per epoch.

    Each pass permutes the rows with ``rng`` (the caller's seeded generator,
    so a run is reproducible) and yields the batches in that order; the last
    batch holds the remainder.  Batches of labeled data are ``(X, y)`` array
    pairs; unlabeled data yields a single array; soft-labeled data yields
    ``(X, P)``.
    """

    def __init__(self, dataset: Dataset, batch_size: int,
                 rng: np.random.Generator):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self._rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator:
        order = np.arange(len(self.dataset))
        self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            yield self.dataset._batch_arrays(order[start:start + self.batch_size])


def train_test_indices(labels: np.ndarray, test_per_class: int,
                       rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Split indices into train/test taking ``test_per_class`` per class.

    Mirrors the protocol of Appendix A.2: the test set is a fixed number of
    images per class sampled uniformly, and the remainder is the train pool.
    """
    labels = np.asarray(labels)
    train: List[int] = []
    test: List[int] = []
    for cls in np.unique(labels):
        cls_indices = np.flatnonzero(labels == cls)
        if len(cls_indices) <= test_per_class:
            raise ValueError(
                f"class {cls} has only {len(cls_indices)} examples, cannot hold out "
                f"{test_per_class} for the test set")
        permuted = rng.permutation(cls_indices)
        test.extend(permuted[:test_per_class].tolist())
        train.extend(permuted[test_per_class:].tolist())
    return np.asarray(sorted(train)), np.asarray(sorted(test))
