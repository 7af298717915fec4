"""The epoch-scoped structural guard and loss-value elision.

``GraphReplay.epoch()`` fingerprints the model once per epoch instead of
on every ``step`` / ``step_fn`` call, and a training step run with
``compute_loss=False`` skips the scalars no one reads.  Neither may change
a single weight byte relative to eager training, and neither may replay a
plan compiled for a different structure.
"""

import numpy as np
import pytest

from repro.modules.fixmatch import _two_view_step as _two_view
from repro.nn import (MLP, SGD, Adam, GraphReplay, leaf_chain,
                      use_graph_replay)
from repro.nn import functional as F
from repro.nn import ops
from repro.nn import replay as replay_module
from repro.nn.modules import Linear, ReLU, Sequential


def _params(model):
    return [p.data.tobytes() for p in model.parameters()]


def _batch(rng):
    return {
        "weak_x": rng.normal(size=(16, 10)),
        "labels": rng.integers(0, 4, size=16),
        "strong_x": rng.normal(size=(24, 10)),
        "pseudo": rng.integers(0, 4, size=24),
        "mask_w": (rng.random(24) < 0.6).astype(np.float64),
        "cons_w": np.asarray(0.7),
        "target": rng.normal(size=(24, 4)),
    }


def _loss_product(model, batch):
    # Each loss's value scales the other's gradient, so neither is elidable.
    ce = F.cross_entropy(model(batch["weak_x"]), batch["labels"])
    sq = F.l2_loss(model(batch["strong_x"]), batch["target"].data)
    return ce * sq


def _only_plan(stepper):
    (plan,) = stepper._plans.values()
    return plan


class TestLossElision:
    @pytest.mark.parametrize("fn", [_two_view, _loss_product],
                             ids=["weighted_sum", "loss_product"])
    def test_elided_steps_match_eager(self, fn):
        def run(replay, compute_loss):
            rng = np.random.default_rng(0)
            model = MLP(10, [16], 4, rng=np.random.default_rng(1))
            with use_graph_replay(replay):
                stepper = GraphReplay(model, Adam(model.parameters(), lr=1e-2))
                losses = [stepper.step_fn(fn, _batch(rng),
                                          compute_loss=compute_loss)
                          for _ in range(6)]
                return _params(model), losses, stepper.stats

        eager, eager_losses, _ = run(False, True)
        lean, lean_losses, stats = run(True, False)
        full, full_losses, _ = run(True, True)
        assert lean == eager
        assert full == eager
        assert full_losses == eager_losses
        assert stats.captures == 1 and stats.replays == 5
        # The capture step runs eagerly and still returns its loss.
        assert lean_losses == eager_losses[:1] + [None] * 5

    def test_only_unread_values_are_skipped(self):
        rng = np.random.default_rng(2)
        batch = _batch(rng)
        plans = {}
        for fn in (_two_view, _loss_product):
            model = MLP(10, [16], 4, rng=np.random.default_rng(3))
            stepper = GraphReplay(model, SGD(model.parameters(), lr=0.1))
            stepper.step_fn(fn, batch)
            plans[fn] = _only_plan(stepper)

        def glue(forwards):
            return sorted(node.op.name for _, node in forwards
                          if node.op in (ops.ADD, ops.MUL))

        # Weighted sum: both loss scalars and the add/mul that combine them
        # are unread.
        two_view = plans[_two_view]
        assert len(two_view._value_losses) == 2
        assert glue(two_view._forwards) == ["add", "mul"]
        assert glue(two_view._lean_forwards) == []
        # Product of losses: the mul's backward reads both loss values, so
        # only the root mul itself is skipped.
        product = plans[_loss_product]
        assert product._value_losses == []
        assert glue(product._lean_forwards) == []
        assert len(product._lean_forwards) == len(product._forwards) - 1


class TestEpochGuard:
    def test_fingerprint_once_per_epoch(self, monkeypatch):
        calls = []
        real = replay_module._model_fingerprint

        def counting(module):
            calls.append(module)
            return real(module)

        monkeypatch.setattr(replay_module, "_model_fingerprint", counting)
        rng = np.random.default_rng(4)
        model = MLP(10, [16], 4, rng=np.random.default_rng(5))
        stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05))
        for _ in range(2):
            with stepper.epoch():
                for _ in range(5):
                    # Two signatures share the epoch's one fingerprint.
                    batch = _batch(rng)
                    stepper.step_fn(_two_view, batch, compute_loss=False)
                    stepper.step_fn(_loss_product, batch, compute_loss=False)
        assert len(calls) == 2  # one per epoch
        assert stepper.stats.captures == 2
        assert stepper.stats.replays == 2 * 2 * 5 - 2
        # Outside a scope every call fingerprints again.
        stepper.step_fn(_two_view, _batch(rng))
        assert len(calls) == 3

    def test_structural_change_between_epochs_recaptures(self):
        def run(replay):
            rng = np.random.default_rng(8)
            init = np.random.default_rng(9)
            model = Sequential(Linear(10, 16, rng=init), ReLU(),
                               Linear(16, 4, rng=init))
            with use_graph_replay(replay):
                stepper = GraphReplay(model, SGD(model.parameters(), lr=0.1))
                for epoch in range(2):
                    if epoch == 1:
                        # Parameter-free, so the optimizer's list is unchanged.
                        model.append(ReLU())
                    with stepper.epoch():
                        for _ in range(3):
                            stepper.step_fn(_two_view, _batch(rng),
                                            compute_loss=False)
                return _params(model), stepper.stats

        replayed, stats = run(True)
        eager, _ = run(False)
        assert replayed == eager
        assert stats.captures == 2
        assert stats.replays == 4
        assert stats.eager_steps == 0

    def test_container_edit_between_epochs_recaptures(self):
        # An in-place container edit assigns no attribute, so only the
        # fingerprint taken afresh by the next scope can see it.
        from repro.modules.fixmatch import consistency_step

        def run(replay):
            rng = np.random.default_rng(12)
            model = MLP(10, [16, 12], 4, rng=np.random.default_rng(13))
            with use_graph_replay(replay):
                stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05,
                                                 momentum=0.9, nesterov=True))
                pseudo_forward = leaf_chain(model, 10, np.float64)
                for epoch in range(3):
                    if epoch == 2:
                        layers = model.net.layers
                        index = next(i for i, layer in enumerate(layers)
                                     if isinstance(layer, ReLU))
                        layers[index] = ReLU()
                    with stepper.epoch():
                        for _ in range(4):
                            batch = _batch(rng)
                            weak_unlabeled = rng.normal(
                                size=batch["strong_x"].shape)
                            consistency_step(stepper, pseudo_forward,
                                             batch["weak_x"], batch["labels"],
                                             weak_unlabeled, batch["strong_x"],
                                             batch["cons_w"], 0.3, np.float64)
                stats = stepper.stats
                return _params(model), (stats.captures, stats.replays,
                                        stats.eager_steps)

        replayed, counts = run(True)
        eager, _ = run(False)
        assert replayed == eager
        # The two-view step is recaptured for the new layer.
        assert counts == (2, 3 * 4 - 2, 0)
