"""Tests for target-dataset abstractions and the split protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import ClassSpec, TargetDataset, make_split


def toy_dataset(num_classes=4, per_class=30, dim=6, with_test=False, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_classes * per_class, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    classes = [ClassSpec(name=f"class_{i}", concept=f"class_{i}")
               for i in range(num_classes)]
    test_features = rng.normal(size=(num_classes * 5, dim)) if with_test else None
    test_labels = np.repeat(np.arange(num_classes), 5) if with_test else None
    return TargetDataset(name="toy", classes=classes, domain="natural",
                         features=features, labels=labels,
                         test_features=test_features, test_labels=test_labels)


class TestClassSpec:
    def test_oov_requires_anchors(self):
        with pytest.raises(ValueError):
            ClassSpec(name="oatghurt")
        spec = ClassSpec(name="oatghurt", anchors=("yoghurt",))
        assert spec.concept is None


class TestTargetDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            TargetDataset(name="bad", classes=[ClassSpec("a", "a")], domain="natural",
                          features=np.zeros((3, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            TargetDataset(name="bad", classes=[ClassSpec("a", "a")], domain="natural",
                          features=np.zeros((3, 2)), labels=np.array([0, 0, 5]))

    def test_properties(self):
        dataset = toy_dataset()
        assert dataset.num_classes == 4
        assert dataset.class_names == [f"class_{i}" for i in range(4)]
        assert not dataset.has_predetermined_test

    def test_test_set_must_come_in_pairs(self):
        with pytest.raises(ValueError):
            TargetDataset(name="bad", classes=[ClassSpec("a", "a")], domain="natural",
                          features=np.zeros((2, 2)), labels=np.zeros(2, dtype=int),
                          test_features=np.zeros((1, 2)))


class TestMakeSplit:
    def test_shapes_and_counts(self):
        dataset = toy_dataset()
        split = make_split(dataset, shots=5, split_seed=0, test_per_class=4)
        assert len(split.labeled_features) == 4 * 5
        assert len(split.test_features) == 4 * 4
        assert len(split.unlabeled_features) == 4 * (30 - 4 - 5)
        assert split.shots == 5 and split.num_classes == 4

    def test_labeled_classes_balanced(self):
        split = make_split(toy_dataset(), shots=3, split_seed=1, test_per_class=2)
        np.testing.assert_array_equal(np.bincount(split.labeled_labels), [3, 3, 3, 3])

    def test_predetermined_test_set_reused(self):
        dataset = toy_dataset(with_test=True)
        split_a = make_split(dataset, shots=1, split_seed=0)
        split_b = make_split(dataset, shots=1, split_seed=5)
        np.testing.assert_allclose(split_a.test_features, split_b.test_features)

    def test_different_split_seed_changes_selection(self):
        dataset = toy_dataset()
        split_a = make_split(dataset, shots=2, split_seed=0, test_per_class=2)
        split_b = make_split(dataset, shots=2, split_seed=1, test_per_class=2)
        assert not np.allclose(split_a.labeled_features, split_b.labeled_features)

    def test_same_seed_is_deterministic(self):
        dataset = toy_dataset()
        split_a = make_split(dataset, shots=2, split_seed=3, test_per_class=2)
        split_b = make_split(dataset, shots=2, split_seed=3, test_per_class=2)
        np.testing.assert_allclose(split_a.labeled_features, split_b.labeled_features)
        np.testing.assert_allclose(split_a.unlabeled_features, split_b.unlabeled_features)

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            make_split(toy_dataset(), shots=0, split_seed=0)
        with pytest.raises(ValueError):
            make_split(toy_dataset(per_class=6), shots=5, split_seed=0,
                       test_per_class=4)

    def test_too_small_class_for_test(self):
        with pytest.raises(ValueError):
            make_split(toy_dataset(per_class=4), shots=1, split_seed=0,
                       test_per_class=5)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10))
def test_property_split_partitions_train_pool(shots, split_seed):
    dataset = toy_dataset(num_classes=3, per_class=20)
    split = make_split(dataset, shots=shots, split_seed=split_seed, test_per_class=3)
    total = (len(split.labeled_features) + len(split.unlabeled_features)
             + len(split.test_features))
    assert total == len(dataset.features)
    assert len(split.labeled_features) == 3 * shots
