"""The epoch-scoped structural guard and loss-value elision.

``GraphReplay.epoch()`` fingerprints the model once per epoch per model
mode instead of on every ``step`` / ``step_fn`` call, and a training step
run with ``compute_loss=False`` skips the scalars no one reads.  Neither may
change a single weight byte relative to eager training, and neither may
replay a plan compiled for a different structure or mode.
"""

import numpy as np
import pytest

from repro.modules.fixmatch import _two_view_step as _two_view
from repro.nn import (MLP, SGD, Adam, GraphReplay, leaf_chain,
                      use_graph_replay)
from repro.nn import functional as F
from repro.nn import ops
from repro.nn import replay as replay_module
from repro.nn.modules import BatchNorm1d, Linear, ReLU, Sequential


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
    def _two_mode_epochs(self, stepper, model, rng, epochs, steps):
        for _ in range(epochs):
            with stepper.epoch():
                for _ in range(steps):
                    batch = _batch(rng)
                    model.eval()
                    stepper.step_fn(_two_view, batch, compute_loss=False)
                    model.train()
                    stepper.step_fn(_two_view, batch, compute_loss=False)

    def test_fingerprint_once_per_mode_per_epoch(self, monkeypatch):
        calls = []
        real = replay_module._model_fingerprint

        def counting(module):
            calls.append(module)
            return real(module)

        monkeypatch.setattr(replay_module, "_model_fingerprint", counting)
        rng = np.random.default_rng(4)
        model = MLP(10, [16], 4, dropout=0.2, rng=np.random.default_rng(5))
        stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05))
        self._two_mode_epochs(stepper, model, rng, epochs=2, steps=5)
        assert len(calls) == 2 * 2  # two epochs x {eval, train}
        assert stepper.stats.captures == 2
        assert stepper.stats.replays == 2 * 2 * 5 - 2
        # Outside a scope every call fingerprints again.
        model.eval()
        stepper.step_fn(_two_view, _batch(rng))
        assert len(calls) == 5

    def test_batchnorm_mode_switch_resolves_a_plan_per_mode(self):
        # Train-mode BatchNorm normalizes with batch statistics and eval
        # mode with the running ones: one cached fingerprint per mode must
        # keep the two plans apart within one epoch.
        def run(replay):
            rng = np.random.default_rng(6)
            model = MLP(10, [16], 4, batch_norm=True,
                        rng=np.random.default_rng(7))
            with use_graph_replay(replay):
                stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05,
                                                 momentum=0.9))
                with stepper.epoch():
                    for _ in range(4):
                        batch = _batch(rng)
                        model.eval()
                        stepper.step_fn(_two_view, batch)
                        model.train()
                        stepper.step_fn(_two_view, batch)
                running = [(m.running_mean.tobytes(), m.running_var.tobytes())
                           for m in model.modules() if isinstance(m, BatchNorm1d)]
                return (_params(model), running), stepper.stats

        replayed, stats = run(True)
        eager, _ = run(False)
        assert replayed == eager
        assert stats.captures == 2  # eval step, train step
        assert stats.replays == 4 * 2 - 2
        assert stats.eager_steps == 0

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


class TestSetTraining:
    """``GraphReplay.set_training`` flips the mode over the module list an
    ``epoch()`` scope walked on entry; it must behave exactly like
    ``model.train(mode)`` / ``model.eval()``."""

    @staticmethod
    def _fixmatch_run(explicit, swap_at=None, replay=True):
        from repro.modules.fixmatch import consistency_step
        from repro.nn.modules import Dropout

        rng = np.random.default_rng(12)
        model = MLP(10, [16, 12], 4, dropout=0.2, batch_norm=True,
                    rng=np.random.default_rng(13))
        with use_graph_replay(replay):
            stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05,
                                             momentum=0.9, nesterov=True))
            if explicit:
                stepper.set_training = model.train  # walks the model every call
            model.eval()
            pseudo_forward = leaf_chain(model, 10, np.float64)
            model.train()
            for epoch in range(3):
                if epoch == swap_at:
                    # An in-place container edit: no attribute is assigned.
                    layers = model.net.layers
                    index = next(i for i, layer in enumerate(layers)
                                 if isinstance(layer, Dropout))
                    layers[index] = Dropout(0.5, rng=np.random.default_rng(14))
                with stepper.epoch():
                    for _ in range(4):
                        batch = _batch(rng)
                        weak_unlabeled = rng.normal(size=batch["strong_x"].shape)
                        consistency_step(stepper, pseudo_forward,
                                         batch["weak_x"], batch["labels"],
                                         weak_unlabeled, batch["strong_x"],
                                         batch["cons_w"], 0.3, np.float64)
                        assert all(m.training for m in model.modules())
            running = [(m.running_mean.tobytes(), m.running_var.tobytes())
                       for m in model.modules() if isinstance(m, BatchNorm1d)]
            stats = stepper.stats
            return ((_params(model), running),
                    (stats.captures, stats.replays, stats.eager_steps))

    def test_consistency_step_matches_explicit_mode_switch(self):
        scoped, scoped_counts = self._fixmatch_run(explicit=False)
        explicit, explicit_counts = self._fixmatch_run(explicit=True)
        eager, _ = self._fixmatch_run(explicit=True, replay=False)
        assert scoped == explicit == eager
        assert scoped_counts == explicit_counts
        assert scoped_counts == (1, 3 * 4 - 1, 0)

    def test_container_edit_between_epochs_recaptures(self):
        scoped, scoped_counts = self._fixmatch_run(explicit=False, swap_at=2)
        explicit, explicit_counts = self._fixmatch_run(explicit=True,
                                                       swap_at=2)
        assert scoped == explicit
        assert scoped_counts == explicit_counts
        # The two-view step is recaptured for the new layer, which the
        # scope's mode flips reach, or the equality would break.
        assert scoped_counts == (2, 3 * 4 - 2, 0)

    def test_outside_a_scope_it_is_model_train(self):
        model = MLP(10, [16], 4, dropout=0.2, rng=np.random.default_rng(15))
        stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05))
        stepper.set_training(False)
        assert not any(m.training for m in model.modules())
        model.net.layers.append(ReLU())
        stepper.set_training(True)
        assert all(m.training for m in model.modules())
