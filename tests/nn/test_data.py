"""Tests for datasets, loaders and the train/test split helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (ArrayDataset, DataLoader, SoftLabeledDataset,
                      UnlabeledDataset, train_test_indices)


class TestDatasets:
    def test_array_dataset(self):
        dataset = ArrayDataset(np.arange(12).reshape(6, 2), np.arange(6) % 3)
        assert len(dataset) == 6
        features, label = dataset[2]
        np.testing.assert_allclose(features, [4, 5])
        assert label == 2
        np.testing.assert_array_equal(dataset.class_counts(), [2, 2, 2])

    def test_array_dataset_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_unlabeled_dataset(self):
        dataset = UnlabeledDataset(np.ones((4, 3)))
        assert len(dataset) == 4
        np.testing.assert_allclose(dataset[0], np.ones(3))

    def test_soft_labeled_dataset_validation(self):
        with pytest.raises(ValueError):
            SoftLabeledDataset(np.zeros((3, 2)), np.zeros(3))
        dataset = SoftLabeledDataset(np.zeros((3, 2)), np.full((3, 4), 0.25))
        _, soft = dataset[1]
        assert soft.shape == (4,)



class TestDataLoader:
    def test_batches_cover_all_examples(self):
        dataset = ArrayDataset(np.arange(20).reshape(10, 2), np.arange(10))
        loader = DataLoader(dataset, batch_size=3, rng=np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for _ in range(2):  # each epoch draws a fresh order
            order = reference.permutation(10)
            batches = list(loader)
            assert [len(y) for _, y in batches] == [3, 3, 3, 1]
            np.testing.assert_array_equal(
                np.concatenate([y for _, y in batches]), order)
            np.testing.assert_array_equal(
                np.concatenate([x for x, _ in batches]),
                dataset.features[order])
        assert len(loader) == 4

    @pytest.mark.parametrize("dataset", [
        UnlabeledDataset(np.arange(14.0).reshape(7, 2)),
        SoftLabeledDataset(np.arange(14.0).reshape(7, 2),
                           np.full((7, 3), 1 / 3))],
        ids=["unlabeled", "soft"])
    def test_batch_structure_per_dataset_kind(self, dataset):
        loader = DataLoader(dataset, batch_size=4, rng=np.random.default_rng(1))
        order = np.random.default_rng(1).permutation(7)
        batches = list(loader)
        if isinstance(dataset, UnlabeledDataset):
            features = np.concatenate(batches)
        else:
            features = np.concatenate([x for x, _ in batches])
            assert all(p.shape[1] == 3 for _, p in batches)
        np.testing.assert_array_equal(features, dataset.features[order])

    def test_shuffle_changes_order_but_not_content(self):
        dataset = ArrayDataset(np.arange(40).reshape(20, 2), np.arange(20))
        loader = DataLoader(dataset, batch_size=20,
                            rng=np.random.default_rng(0))
        (_, labels) = next(iter(loader))
        assert sorted(labels.tolist()) == list(range(20))
        assert labels.tolist() != list(range(20))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(UnlabeledDataset(np.zeros((2, 2))), batch_size=0,
                       rng=np.random.default_rng(0))


class TestTrainTestIndices:
    def test_respects_per_class_counts(self):
        labels = np.repeat(np.arange(3), 10)
        train, test = train_test_indices(labels, test_per_class=2,
                                         rng=np.random.default_rng(0))
        assert len(test) == 6
        assert len(train) == 24
        assert set(train) & set(test) == set()
        for cls in range(3):
            assert (labels[test] == cls).sum() == 2

    def test_too_few_examples(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(ValueError):
            train_test_indices(labels, test_per_class=2,
                               rng=np.random.default_rng(0))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(5, 12), st.integers(1, 3))
def test_property_split_is_a_partition(num_classes, per_class, test_per_class):
    labels = np.repeat(np.arange(num_classes), per_class)
    train, test = train_test_indices(labels, test_per_class=test_per_class,
                                     rng=np.random.default_rng(0))
    assert len(train) + len(test) == len(labels)
    assert set(train.tolist()) | set(test.tolist()) == set(range(len(labels)))
