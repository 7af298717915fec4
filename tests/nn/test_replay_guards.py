"""Guard-rail tests for the replay executor's fallback paths.

An aggressive capture/replay engine is only safe if every way the traced
assumptions can break is detected *on the step where it happens*: batch
shape or dtype changes, model structure mutations mid-loop, unsupported
layers, frozen parameters, and engine-mode switches.  Each test mutates a
loop mid-flight and asserts (a) the executor noticed — via its stats — and
(b) the results are exactly what the pure eager engine produces, i.e. no
silent stale-buffer reuse.
"""

import numpy as np
import pytest

from repro.nn import GraphReplay, SGD, use_graph_replay
from repro.nn.modules import Linear, Module, ReLU, Sequential


def _make_model(seed=0, din=8, hidden=16, dout=4):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(din, hidden, rng=rng), ReLU(),
                      Linear(hidden, dout, rng=rng))


def _params(model):
    return [p.data.copy() for p in model.parameters()]


def _batches(seed=1, n=32, din=8, classes=4, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, din)).astype(dtype)
    y = rng.integers(0, classes, size=n)
    return x, y


def _run_script(script, replay):
    """Run a list of (model_mutator_or_None, x, y) steps; return params."""
    model = _make_model()
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    with use_graph_replay(replay):
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        for mutate, x, y in script:
            if mutate is not None:
                mutate(model, optimizer)
            stepper.step(x, y)
        return _params(model), stepper.stats


class TestBatchShapeChange:
    def test_new_shape_gets_its_own_plan_and_results_match_eager(self):
        x1, y1 = _batches(1, n=32)
        x2, y2 = _batches(2, n=20)  # different batch size mid-loop
        script = [(None, x1, y1)] * 3 + [(None, x2, y2)] * 2 + [(None, x1, y1)]
        replay_params, stats = _run_script(script, replay=True)
        eager_params, _ = _run_script(script, replay=False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        # One capture per shape; every other step replayed, none eager.
        assert stats.captures == 2
        assert stats.replays == 4
        assert stats.eager_steps == 0


class TestDtypeSwap:
    def test_dtype_change_recaptures_and_matches_eager(self):
        x64, y = _batches(3, dtype=np.float64)
        x32 = x64.astype(np.float32)
        script = [(None, x64, y)] * 2 + [(None, x32, y)] * 2 + [(None, x64, y)]
        replay_params, stats = _run_script(script, replay=True)
        eager_params, _ = _run_script(script, replay=False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        # float32 input is cast to the (float64) parameter dtype exactly as
        # the eager Tensor constructor does, under a separate signature.
        assert stats.captures == 2
        assert stats.replays == 3


class TestModelMutationMidLoop:
    def test_appended_layer_is_detected_and_trained_correctly(self):
        x, y = _batches(4)

        def add_layer(model, optimizer):
            # A parameter-free layer changes the graph without changing the
            # optimizer's parameter list.
            model.append(ReLU())

        script = ([(None, x, y)] * 3 + [(add_layer, x, y)]
                  + [(None, x, y)] * 2)
        replay_params, stats = _run_script(script, replay=True)
        eager_params, _ = _run_script(script, replay=False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        # The structural change forces a second capture; no stale plan runs.
        assert stats.captures == 2
        assert stats.replays == 4

    def test_swapped_head_is_detected(self):
        x, y = _batches(5)

        def swap_head(model, optimizer):
            model.layers[-1] = Linear(16, 4, rng=np.random.default_rng(42))

        script = [(None, x, y)] * 2 + [(swap_head, x, y)] + [(None, x, y)]
        replay_params, stats = _run_script(script, replay=True)
        eager_params, _ = _run_script(script, replay=False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        # The new head's parameters are not the optimizer's, so they have
        # no gradient view: after the swap no plan replays, and the steps
        # run eagerly under that reason.
        assert (stats.captures, stats.replays) == (1, 1)
        assert stats.fallbacks == {
            "unsupported: a parameter outside the optimizer requires grad": 2}

    def test_freezing_a_parameter_mid_loop_is_detected(self):
        x, y = _batches(6)

        def freeze(model, optimizer):
            model.layers[0].weight.requires_grad = False

        script = [(None, x, y)] * 2 + [(freeze, x, y)] + [(None, x, y)] * 2
        replay_params, stats = _run_script(script, replay=True)
        eager_params, _ = _run_script(script, replay=False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        assert stats.captures == 2


class TestUnsupportedStructures:
    def test_shared_layer_replays_with_grad_accumulation(self):
        # A layer applied twice accumulates its parameter gradient; the DAG
        # plan writes the first contribution and adds the second in eager
        # backward order, so results stay exactly eager.
        class Siamese(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(8, 8, rng=np.random.default_rng(30))
                self.head = Linear(8, 4, rng=np.random.default_rng(31))

            def forward(self, x):
                return self.head(self.lin(self.lin(x)))

        x, y = _batches(32)

        def run(replay):
            model = Siamese()
            optimizer = SGD(model.parameters(), lr=0.1)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer, loss="cross_entropy")
                for _ in range(4):
                    stepper.step(x, y)
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 3
        assert stats.eager_steps == 0
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)

    def test_custom_tensor_math_in_forward_falls_back(self):
        class Scaled(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(8, 4, rng=np.random.default_rng(9))

            def forward(self, x):
                return self.lin(x) * 2.0  # op outside the traced leaf chain

        model = Scaled()
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        x, y = _batches(10)
        for _ in range(3):
            stepper.step(x, y)
        assert stepper.stats.replays == 0
        assert stepper.stats.eager_steps == 3


class TestEngineModeSwitches:
    def test_use_graph_replay_false_disables_replay(self):
        model = _make_model()
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        x, y = _batches(14)
        with use_graph_replay(False):
            for _ in range(3):
                stepper.step(x, y)
        assert stepper.stats.replays == 0
        assert stepper.stats.eager_steps == 3
        # Back on: captures and replays resume.
        stepper.step(x, y)
        stepper.step(x, y)
        assert stepper.stats.captures == 1
        assert stepper.stats.replays == 1

    def test_inner_scope_overrides_ambient_off(self):
        # Force-on: an inner use_graph_replay(True), which is what
        # ControllerConfig(replay=True) opens, wins over an enclosing
        # use_graph_replay(False).
        model = _make_model()
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        x, y = _batches(28)
        with use_graph_replay(False), use_graph_replay(True):
            stepper.step(x, y)
            stepper.step(x, y)
        assert stepper.stats.captures == 1
        assert stepper.stats.replays == 1


class TestPlanCacheFull:
    @pytest.mark.parametrize("scoped", [False, True],
                             ids=["unscoped", "epoch_scope"])
    def test_signatures_past_the_cap_run_eagerly_and_match(self, scoped):
        # Past the plan cap a new signature is not compiled: it runs on the
        # eager path under "plan_cache_full", while the captured signatures
        # keep replaying, and every weight matches a replay-off run.
        import contextlib

        from repro.nn import replay as replay_module

        cap = replay_module._MAX_PLANS
        sizes = range(8, 8 + cap + 2)
        script = [_batches(40 + n, n=n) for n in sizes] * 2

        def run(replay):
            model = _make_model()
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer, loss="cross_entropy")
                with (stepper.epoch() if scoped
                      else contextlib.nullcontext()):
                    losses = [stepper.step(x, y) for x, y in script]
            return _params(model), losses, stepper

        params, losses, stepper = run(True)
        eager_params, eager_losses, _ = run(False)
        for a, b in zip(params, eager_params):
            np.testing.assert_array_equal(a, b)
        assert losses == eager_losses
        assert len(stepper._plans) == cap
        assert stepper.stats.captures == cap
        assert stepper.stats.replays == cap
        assert stepper.stats.fallbacks == {"plan_cache_full": 4}


class TestFrozenParameters:
    def test_head_only_training_matches_eager(self):
        x, y = _batches(16)

        def run(replay):
            model = _make_model(seed=17)
            for p in model.layers[0].parameters():
                p.requires_grad = False
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer, loss="cross_entropy")
                for _ in range(5):
                    stepper.step(x, y)
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        for a, b in zip(replay_params, eager_params):
            np.testing.assert_array_equal(a, b)
        assert stats.replays == 4  # frozen layers replay fine

    def test_frozen_first_layer_weights_do_not_move(self):
        model = _make_model(seed=18)
        frozen = model.layers[0].weight
        frozen.requires_grad = False
        before = frozen.data.copy()
        optimizer = SGD(model.parameters(), lr=0.5)
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        x, y = _batches(19)
        for _ in range(4):
            stepper.step(x, y)
        np.testing.assert_array_equal(frozen.data, before)


class TestErrorBehavior:
    def test_out_of_range_labels_raise_in_replayed_step(self):
        model = _make_model(seed=20)
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer, loss="cross_entropy")
        x, y = _batches(21)
        stepper.step(x, y)
        stepper.step(x, y)
        assert stepper.stats.replays == 1
        bad = y.copy()
        bad[0] = 99
        with pytest.raises(ValueError, match="labels out of range"):
            stepper.step(x, bad)

    def test_soft_target_shape_mismatch_raises(self):
        model = _make_model(seed=22)
        optimizer = SGD(model.parameters(), lr=0.1)
        stepper = GraphReplay(model, optimizer, loss="soft_cross_entropy")
        x, _ = _batches(23)
        probs = np.full((32, 4), 0.25)
        stepper.step(x, probs)
        with pytest.raises(ValueError):
            stepper.step(x, np.full((32, 5), 0.2))
