"""Tests for the shared training loops."""

import numpy as np
import pytest

from repro.nn import (MLP, TrainConfig, build_optimizer, build_scheduler,
                      iterate_forever, predict_logits,
                      predict_proba, train_classifier, train_soft_classifier)
from repro.nn import functional as F
from repro.nn.data import ArrayDataset, DataLoader


def make_blobs(n_per_class=60, num_classes=3, dim=8, seed=0):
    """Well-separated Gaussian blobs: any sensible trainer should fit them."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(num_classes, dim))
    features = []
    labels = []
    for cls in range(num_classes):
        features.append(centers[cls] + rng.normal(0.0, 0.5, size=(n_per_class, dim)))
        labels.append(np.full(n_per_class, cls))
    return np.concatenate(features), np.concatenate(labels)


class TestTrainClassifier:
    def test_learns_separable_blobs(self):
        features, labels = make_blobs()
        model = MLP(8, [16], 3, rng=np.random.default_rng(0))
        train_classifier(model, features, labels,
                         TrainConfig(epochs=15, lr=0.05, batch_size=32, seed=0))
        assert F.accuracy(predict_logits(model, features), labels) > 0.95

    def test_empty_dataset_rejected(self):
        model = MLP(4, [4], 2)
        with pytest.raises(ValueError):
            train_classifier(model, np.zeros((0, 4)), np.zeros(0), TrainConfig())

    def test_deterministic_given_seed(self):
        features, labels = make_blobs(n_per_class=20)
        outputs = []
        for _ in range(2):
            model = MLP(8, [8], 3, rng=np.random.default_rng(3))
            train_classifier(model, features, labels,
                             TrainConfig(epochs=3, lr=0.05, seed=11))
            outputs.append(predict_logits(model, features[:5]))
        np.testing.assert_allclose(outputs[0], outputs[1])


class TestSoftTraining:
    def test_learns_from_soft_labels(self):
        features, labels = make_blobs()
        soft = F.one_hot(labels, 3) * 0.9 + 0.1 / 3
        model = MLP(8, [16], 3, rng=np.random.default_rng(0))
        train_soft_classifier(model, features, soft,
                              TrainConfig(epochs=15, lr=0.05, seed=0))
        assert F.accuracy(predict_logits(model, features), labels) > 0.9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_soft_classifier(MLP(4, [4], 2), np.zeros((0, 4)),
                                  np.zeros((0, 2)), TrainConfig())


class TestPrediction:
    def test_predict_proba_rows_sum_to_one(self):
        model = MLP(6, [8], 4, rng=np.random.default_rng(0))
        probs = predict_proba(model, np.random.default_rng(1).normal(size=(10, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10))

    def test_predict_handles_batching(self):
        model = MLP(6, [8], 4, rng=np.random.default_rng(0))
        features = np.random.default_rng(1).normal(size=(300, 6))
        full = predict_logits(model, features, batch_size=64)
        assert full.shape == (300, 4)
        np.testing.assert_allclose(full, predict_logits(model, features, batch_size=7))

    def test_predict_empty(self):
        model = MLP(6, [8], 4)
        assert predict_logits(model, np.zeros((0, 6))).size == 0


class TestBuilders:
    def test_build_optimizer_variants(self):
        model = MLP(4, [4], 2)
        assert build_optimizer(model, TrainConfig(optimizer="sgd")).__class__.__name__ == "SGD"
        assert build_optimizer(model, TrainConfig(optimizer="adam")).__class__.__name__ == "Adam"
        with pytest.raises(ValueError):
            build_optimizer(model, TrainConfig(optimizer="lbfgs"))

    def test_build_scheduler_epoch_milestones(self):
        model = MLP(4, [4], 2)
        config = TrainConfig(scheduler="multistep", milestones=(2,), lr=1.0)
        optimizer = build_optimizer(model, config)
        scheduler = build_scheduler(optimizer, config, steps_per_epoch=10)
        # The milestone is epoch 2 = step 20.
        assert scheduler.get_lr(19) == pytest.approx(1.0)
        assert scheduler.get_lr(20) == pytest.approx(0.1)

    def test_build_scheduler_unknown(self):
        model = MLP(4, [4], 2)
        config = TrainConfig(scheduler="nope")
        optimizer = build_optimizer(model, config)
        with pytest.raises(ValueError):
            build_scheduler(optimizer, config)

    def test_iterate_forever_cycles(self):
        loader = DataLoader(ArrayDataset(np.arange(8).reshape(4, 2), np.arange(4)),
                            batch_size=2, rng=np.random.default_rng(0))
        stream = iterate_forever(loader)
        batches = [next(stream) for _ in range(5)]
        assert len(batches) == 5

    def test_iterate_forever_rejects_a_loader_without_batches(self):
        # An empty dataset: cycling used to spin forever inside next().
        loader = DataLoader(ArrayDataset(np.zeros((0, 2)), np.zeros(0)),
                            batch_size=4, rng=np.random.default_rng(0))
        assert len(loader) == 0
        with pytest.raises(ValueError, match="no batches"):
            next(iterate_forever(loader))
