"""Replay-vs-eager equivalence tests for the graph replay executor.

The whole-graph capture/replay executor (:mod:`repro.nn.replay`) promises
that replayed training is *bit-identical* to the fused eager path: for every
model/loss/optimizer combination used in the pipeline we train twice — once
with replay forced on, once forced off — and require exactly equal
parameters after N steps, in both float64 and float32.
"""

import contextlib

import numpy as np
import pytest

from repro.modules.zsl_kg import _l2_step
from repro.nn import (MLP, Adam, GraphReplay, Tensor, TrainConfig,
                      cross_entropy_step, default_dtype, no_grad,
                      train_classifier, train_soft_classifier,
                      use_graph_replay)
from repro.nn import functional as F
from repro.nn.modules import Linear, Module, ReLU

DTYPES = [
    pytest.param(np.float64, id="float64"),
    pytest.param(np.float32, id="float32"),
]


def _dtype_scope(dtype):
    return default_dtype(dtype) if dtype is not np.float64 else contextlib.nullcontext()


def _params(model):
    return [p.data.copy() for p in model.parameters()]


def _assert_bit_identical(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)


class TestHardCrossEntropySGD:
    """The transfer/multitask/fixmatch-supervised loop shape."""

    def _train(self, dtype, replay):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(150, 24))
        labels = rng.integers(0, 7, size=150)
        config = TrainConfig(epochs=4, batch_size=32, lr=0.05, momentum=0.9,
                             nesterov=True, weight_decay=1e-4,
                             scheduler="multistep", milestones=(2,),
                             seed=0)
        with _dtype_scope(dtype), use_graph_replay(replay):
            model = MLP(24, [48, 32], 7, rng=np.random.default_rng(1))
            train_classifier(model, features, labels, config)
            return _params(model)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_replay_bit_identical_to_eager(self, dtype):
        _assert_bit_identical(self._train(dtype, replay=True),
                              self._train(dtype, replay=False))


class TestSoftCrossEntropyAdam:
    """The end-model distillation loop shape (soft targets + Adam + decay)."""

    def _train(self, dtype, replay):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(120, 16))
        probs = rng.dirichlet(np.ones(5), size=120)
        config = TrainConfig(epochs=4, batch_size=32, lr=3e-3,
                             optimizer="adam", weight_decay=1e-4,
                             scheduler="multistep", milestones=(2,),
                             seed=0)
        with _dtype_scope(dtype), use_graph_replay(replay):
            model = MLP(16, [32], 5, rng=np.random.default_rng(3))
            train_soft_classifier(model, features, probs, config)
            return _params(model)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_replay_bit_identical_to_eager(self, dtype):
        _assert_bit_identical(self._train(dtype, replay=True),
                              self._train(dtype, replay=False))


class _ClassEncoder(Module):
    """The ZSL-KG GraphClassEncoder architecture (custom forward chain)."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(48, 64, rng=rng)
        self.activation = ReLU()
        self.fc2 = Linear(64, 32, rng=rng)

    def forward(self, x):
        return self.fc2(self.activation(self.fc1(x)))


class TestL2AdamPretrainLoop:
    """The ZSL-KG pretrain loop: full-batch L2 regression + per-epoch eval."""

    def _train(self, dtype, replay, epochs=40):
        with _dtype_scope(dtype), use_graph_replay(replay):
            dt = np.float32 if dtype is np.float32 else np.float64
            rng = np.random.default_rng(4)
            train_x = rng.normal(size=(30, 48)).astype(dt)
            train_y = rng.normal(size=(30, 32)).astype(dt)
            val_x = rng.normal(size=(4, 48)).astype(dt)
            val_y = rng.normal(size=(4, 32)).astype(dt)
            encoder = _ClassEncoder(np.random.default_rng(5))
            optimizer = Adam(encoder.parameters(), lr=1e-2)
            stepper = GraphReplay(encoder, optimizer)
            val_losses = []
            for _ in range(epochs):
                stepper.step_fn(_l2_step, {"x": train_x, "y": train_y},
                                compute_loss=False)
                with no_grad():
                    val_losses.append(
                        F.l2_loss(encoder(Tensor(val_x)), val_y).item())
            return _params(encoder), val_losses, stepper.stats

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_replay_bit_identical_to_eager(self, dtype):
        replay_params, replay_vals, stats = self._train(dtype, replay=True)
        eager_params, eager_vals, _ = self._train(dtype, replay=False)
        _assert_bit_identical(replay_params, eager_params)
        assert replay_vals == eager_vals  # every epoch's weights agree too
        # The loop must actually have replayed (one training capture).
        assert stats.captures == 1
        assert stats.replays == 40 - 1


class TestUnevenBatches:
    """The last smaller batch compiles its own plan; results stay exact."""

    def _train(self, replay):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(70, 10))
        labels = rng.integers(0, 3, size=70)
        config = TrainConfig(epochs=3, batch_size=32, seed=0)
        model = MLP(10, [16], 3, rng=np.random.default_rng(9))
        with use_graph_replay(replay):
            train_classifier(model, features, labels, config)
        return _params(model)

    def test_replay_bit_identical_to_eager(self):
        _assert_bit_identical(self._train(True), self._train(False))


class TestAugmentedLoop:
    """Augmentation runs outside the compiled step; RNG streams stay aligned."""

    def _train(self, replay):
        from repro.nn import weak_augment

        rng = np.random.default_rng(10)
        features = rng.normal(size=(80, 8))
        labels = rng.integers(0, 4, size=80)
        config = TrainConfig(epochs=3, batch_size=32, seed=0,
                             augment=weak_augment())
        model = MLP(8, [16], 4, rng=np.random.default_rng(11))
        with use_graph_replay(replay):
            train_classifier(model, features, labels, config)
        return _params(model)

    def test_replay_bit_identical_to_eager(self):
        _assert_bit_identical(self._train(True), self._train(False))


class TestReplayActuallyReplays:
    """Sanity: the default-on path compiles once and replays the rest."""

    def test_stats_show_replays(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(64, 6)).astype(np.float64)
        labels = rng.integers(0, 3, size=64)
        from repro.nn import SGD

        model = MLP(6, [12], 3, rng=np.random.default_rng(13))
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer)
        for _ in range(10):
            stepper.step_fn(cross_entropy_step, {"x": features, "y": labels})
        assert stepper.stats.captures == 1
        assert stepper.stats.replays == 9
        assert stepper.stats.eager_steps == 0
