"""Replay-vs-eager differential suite for DAG-shaped traces.

The DAG generalization of the replay executor (weight sharing across
views, fan-out/fan-in, summed and weighted-sum losses, the ``step_fn``
API) promises the same contract as the linear chains of
``test_replay.py``: replayed training is **bit-identical** to the eager
path.  Every graph shape here trains twice — replay forced on vs forced
off — and requires exactly equal parameters after N steps, in float64 and
float32, across the pipeline's optimizers.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import (MLP, Adam, GraphReplay, SGD, cross_entropy_step,
                      default_dtype, use_graph_replay)
from repro.nn import functional as F
from repro.nn.modules import Linear, Module, ReLU, Sequential
from repro.nn import ops

DTYPES = [
    pytest.param(np.float64, id="float64"),
    pytest.param(np.float32, id="float32"),
]

OPTIMIZERS = {
    "sgd_nesterov": lambda params: SGD(params, lr=0.05, momentum=0.9,
                                       nesterov=True, weight_decay=1e-4),
    "sgd_plain": lambda params: SGD(params, lr=0.05),
    "adam": lambda params: Adam(params, lr=3e-3, weight_decay=1e-4),
}


def _dtype_scope(dtype):
    return (default_dtype(dtype) if dtype is not np.float64
            else contextlib.nullcontext())


def _params(model):
    return [p.data.copy() for p in model.parameters()]


def _assert_bit_identical(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        np.testing.assert_array_equal(g, e)


# --------------------------------------------------------------------------- #
# Fan-out: a shared encoder feeding two heads
# --------------------------------------------------------------------------- #


class _ForkedModel(Module):
    """h = encoder(x); logits = head_a(h) + head_b(h) — fan-out + fan-in."""

    def __init__(self, rng):
        super().__init__()
        self.encoder = Linear(16, 24, rng=rng)
        self.act = ReLU()
        self.head_a = Linear(24, 5, rng=rng)
        self.head_b = Linear(24, 5, rng=rng)

    def forward(self, x):
        h = self.act(self.encoder(x))
        return self.head_a(h) + self.head_b(h)


class TestSharedEncoderFanOut:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("opt", sorted(OPTIMIZERS), ids=str)
    def test_replay_bit_identical_to_eager(self, dtype, opt):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 16))
        y = rng.integers(0, 5, size=40)

        def run(replay):
            with _dtype_scope(dtype), use_graph_replay(replay):
                model = _ForkedModel(np.random.default_rng(9))
                optimizer = OPTIMIZERS[opt](model.parameters())
                stepper = GraphReplay(model, optimizer)
                for _ in range(8):
                    stepper.step_fn(cross_entropy_step, {"x": x, "y": y})
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 7
        assert stats.eager_steps == 0
        _assert_bit_identical(replay_params, eager_params)


# --------------------------------------------------------------------------- #
# The FixMatch two-view consistency step (weight sharing across views)
# --------------------------------------------------------------------------- #


def _two_view(model, batch):
    sup = F.cross_entropy(model(batch["weak_x"]), batch["labels"])
    cons = F.cross_entropy(model(batch["strong_x"]), batch["pseudo"],
                           sample_weights=batch["mask_w"].data)
    return sup + batch["cons_w"] * cons


class TestTwoViewStepFn:
    """The FixMatch-shaped graph: the same model applied to two views, a
    weighted per-sample consistency loss, and a weighted sum of losses."""

    def _run(self, dtype, opt, replay, steps=10):
        with _dtype_scope(dtype), use_graph_replay(replay):
            dt = np.dtype(dtype)
            rng = np.random.default_rng(10)
            model = MLP(12, [24, 16], 4, rng=np.random.default_rng(11))
            optimizer = OPTIMIZERS[opt](model.parameters())
            stepper = GraphReplay(model, optimizer)
            cons_w = np.asarray(0.7, dtype=dt)
            losses = []
            for _ in range(steps):
                # Fresh views, pseudo labels, and mask every step — values
                # change, shapes stay static, so one plan serves the loop.
                batch = {
                    "weak_x": rng.normal(size=(20, 12)).astype(dt),
                    "labels": rng.integers(0, 4, size=20),
                    "strong_x": rng.normal(size=(48, 12)).astype(dt),
                    "pseudo": rng.integers(0, 4, size=48),
                    "mask_w": (rng.random(48) < 0.6).astype(dt),
                    "cons_w": cons_w,
                }
                losses.append(stepper.step_fn(_two_view, batch))
            return _params(model), losses, stepper.stats

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("opt", sorted(OPTIMIZERS), ids=str)
    def test_replay_bit_identical_to_eager(self, dtype, opt):
        replay_params, replay_losses, stats = self._run(dtype, opt, True)
        eager_params, eager_losses, _ = self._run(dtype, opt, False)
        _assert_bit_identical(replay_params, eager_params)
        assert replay_losses == eager_losses  # loss scalars bitwise equal
        assert stats.captures == 1
        assert stats.replays == 9
        assert stats.eager_steps == 0

    def test_all_masked_out_step_replays(self):
        # A step where every pseudo label is rejected (all-zero weights)
        # must still replay and contribute exactly zero consistency
        # gradient.
        def run(replay):
            rng = np.random.default_rng(12)
            model = MLP(8, [16], 3, rng=np.random.default_rng(13))
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                for i in range(6):
                    batch = {
                        "weak_x": rng.normal(size=(10, 8)),
                        "labels": rng.integers(0, 3, size=10),
                        "strong_x": rng.normal(size=(24, 8)),
                        "pseudo": rng.integers(0, 3, size=24),
                        "mask_w": (np.zeros(24) if i % 2 else np.ones(24)),
                        "cons_w": np.asarray(1.0),
                    }
                    stepper.step_fn(_two_view, batch)
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 5
        _assert_bit_identical(replay_params, eager_params)

    def test_changed_weight_scalar_is_picked_up_without_recapture(self):
        # cons_w is a step *input*, so changing its value flows into the
        # replayed kernels with no recapture.
        rng = np.random.default_rng(14)
        batch_base = {
            "weak_x": rng.normal(size=(10, 8)),
            "labels": rng.integers(0, 3, size=10),
            "strong_x": rng.normal(size=(16, 8)),
            "pseudo": rng.integers(0, 3, size=16),
            "mask_w": np.ones(16),
        }

        def run(replay):
            model = MLP(8, [16], 3, rng=np.random.default_rng(15))
            optimizer = SGD(model.parameters(), lr=0.1)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                for w in (0.25, 0.5, 1.0, 2.0):
                    stepper.step_fn(_two_view,
                                    dict(batch_base, cons_w=np.asarray(w)))
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 3
        _assert_bit_identical(replay_params, eager_params)


# --------------------------------------------------------------------------- #
# Summed multi-loss graphs (fan-in over loss kinds)
# --------------------------------------------------------------------------- #


def _multi_loss(model, batch):
    ce = F.cross_entropy(model(batch["x1"]), batch["y1"])
    reg = F.l2_loss(model(batch["x2"]), batch["y2"].data)
    return ce + batch["w"] * reg


def _summed_loss(model, batch):
    a = F.cross_entropy(model(batch["x1"]), batch["y1"])
    b = F.soft_cross_entropy(model(batch["x2"]), batch["y2"].data)
    return a + b


class TestMultiLossGraphs:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("fn", [_multi_loss, _summed_loss],
                             ids=["weighted_ce_plus_l2", "ce_plus_soft_ce"])
    def test_replay_bit_identical_to_eager(self, dtype, fn):
        def run(replay):
            with _dtype_scope(dtype), use_graph_replay(replay):
                dt = np.dtype(dtype)
                rng = np.random.default_rng(16)
                model = MLP(10, [20], 6, rng=np.random.default_rng(17))
                optimizer = Adam(model.parameters(), lr=1e-2)
                stepper = GraphReplay(model, optimizer)
                losses = []
                for _ in range(8):
                    y2 = (rng.dirichlet(np.ones(6), size=24)
                          if fn is _summed_loss
                          else rng.normal(size=(24, 6)))
                    batch = {
                        "x1": rng.normal(size=(16, 10)).astype(dt),
                        "y1": rng.integers(0, 6, size=16),
                        "x2": rng.normal(size=(24, 10)).astype(dt),
                        "y2": y2.astype(dt),
                        "w": np.asarray(0.3, dtype=dt),
                    }
                    losses.append(stepper.step_fn(fn, batch))
                return _params(model), losses, stepper.stats

        replay_params, replay_losses, stats = run(True)
        eager_params, eager_losses, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 7
        assert stats.eager_steps == 0
        assert replay_losses == eager_losses
        _assert_bit_identical(replay_params, eager_params)


def _shared_logits(model, batch):
    # One forward's logits consumed by two losses: grad deposits into the
    # same logits buffer must write-then-accumulate in eager order.
    logits = model(batch["x"])
    return F.cross_entropy(logits, batch["y"]) \
        + F.soft_cross_entropy(logits, batch["p"].data)


class TestSharedLogitsTwoLosses:
    def test_replay_bit_identical_to_eager(self):
        def run(replay):
            rng = np.random.default_rng(22)
            model = MLP(8, [16], 4, rng=np.random.default_rng(23))
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                losses = []
                for _ in range(6):
                    batch = {"x": rng.normal(size=(12, 8)),
                             "y": rng.integers(0, 4, size=12),
                             "p": rng.dirichlet(np.ones(4), size=12)}
                    losses.append(stepper.step_fn(_shared_logits, batch))
                return _params(model), losses, stepper.stats

        replay_params, replay_losses, stats = run(True)
        eager_params, eager_losses, _ = run(False)
        assert stats.captures == 1
        assert stats.eager_steps == 0
        assert replay_losses == eager_losses
        _assert_bit_identical(replay_params, eager_params)


def _shared_two_view(model, batch):
    return F.cross_entropy(model(batch["x1"]), batch["y1"]) \
        + F.cross_entropy(model(batch["x2"]), batch["y2"])


class TestLayerSharedAcrossViews:
    def test_replay_bit_identical_to_eager(self):
        # One model applied to two views of different sizes in one step:
        # every layer runs twice and its weight and bias gradients
        # accumulate across the two applications.
        def run(replay):
            rng = np.random.default_rng(24)
            model = MLP(8, [16], 4, rng=np.random.default_rng(25))
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                for _ in range(6):
                    batch = {"x1": rng.normal(size=(10, 8)),
                             "y1": rng.integers(0, 4, size=10),
                             "x2": rng.normal(size=(14, 8)),
                             "y2": rng.integers(0, 4, size=14)}
                    stepper.step_fn(_shared_two_view, batch)
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 1
        assert stats.replays == 5
        assert stats.eager_steps == 0
        _assert_bit_identical(replay_params, eager_params)


class _Heads(Module):
    """Two independent heads behind one optimizer (disjoint coverage)."""

    def __init__(self):
        super().__init__()
        self.h1 = Linear(8, 4, rng=np.random.default_rng(26))
        self.h2 = Linear(8, 4, rng=np.random.default_rng(27))

    def forward(self, x):  # pragma: no cover - heads are called directly
        return self.h1(x)


def _h1_only(model, batch):
    return F.cross_entropy(model.h1(batch["x"]), batch["y"])


def _h2_only(model, batch):
    return F.cross_entropy(model.h2(batch["x"]), batch["y"])


class TestPartialParameterCoverage:
    def test_alternating_step_fns_match_eager(self):
        # Two step functions touching disjoint heads of one optimizer:
        # a replayed plan must clear the gradients of the parameters it
        # does not cover (eager's zero_grad does), or the other head's
        # stale gradient would be re-applied.
        def run(replay):
            rng = np.random.default_rng(28)
            model = _Heads()
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                for i in range(8):
                    batch = {"x": rng.normal(size=(10, 8)),
                             "y": rng.integers(0, 4, size=10)}
                    stepper.step_fn(_h1_only if i % 2 == 0 else _h2_only, batch)
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.captures == 2  # one plan per step function
        assert stats.eager_steps == 0
        _assert_bit_identical(replay_params, eager_params)


class TestAliasedInputs:
    def test_same_array_under_two_keys_falls_back_to_eager(self):
        # Two input keys bound to the same array at capture time are
        # ambiguous (a later replay may un-alias them), so the capture is
        # rejected and the loop runs eagerly — never a silently mis-bound
        # plan.
        def fn(model, batch):
            return F.cross_entropy(model(batch["xa"]), batch["ya"]) \
                + F.cross_entropy(model(batch["xb"]), batch["yb"])

        rng = np.random.default_rng(31)
        x = rng.normal(size=(10, 6))
        ya = rng.integers(0, 3, size=10)
        yb = rng.integers(0, 3, size=10)

        def run(replay):
            model = MLP(6, [12], 3, rng=np.random.default_rng(32))
            optimizer = SGD(model.parameters(), lr=0.1)
            with use_graph_replay(replay):
                stepper = GraphReplay(model, optimizer)
                # Step 1 aliases ya under both target keys; step 2 un-aliases.
                stepper.step_fn(fn, {"xa": x, "ya": ya, "xb": x, "yb": ya})
                stepper.step_fn(fn, {"xa": x, "ya": ya, "xb": x, "yb": yb})
                return _params(model), stepper.stats

        replay_params, stats = run(True)
        eager_params, _ = run(False)
        assert stats.replays == 0
        assert stats.eager_steps == 2
        assert any("aliases" in r or "multiple step inputs" in r
                   for r in stats.fallbacks)
        _assert_bit_identical(replay_params, eager_params)


# --------------------------------------------------------------------------- #
# ReLU buffer reuse: in place only over a private Linear output
# --------------------------------------------------------------------------- #


class _PreActivationFanOut(Module):
    """The Linear output feeds the ReLU *and* a residual sum."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(10, 16, rng=rng)
        self.act = ReLU()
        self.fc2 = Linear(16, 4, rng=rng)

    def forward(self, x):
        h = self.fc1(x)
        return self.fc2(self.act(h) + h)


class _TensorMethods(Module):
    """An activation called as a tensor method, not as a ReLU layer."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(10, 16, rng=rng)
        self.fc2 = Linear(16, 4, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


#: case -> (model factory, whether each traced ReLU of the training plan
#: may run in place over its producer's buffer)
REUSE_CASES = {
    "tensor_method_relu": (_TensorMethods, [True]),
    "linear_relu_linear": (
        lambda rng: Sequential(Linear(10, 16, rng=rng), ReLU(),
                               Linear(16, 4, rng=rng)), [True]),
    "linear_output_fanned_out": (_PreActivationFanOut, [False]),
    "relu_fed_by_relu": (
        lambda rng: Sequential(Linear(10, 16, rng=rng), ReLU(), ReLU(),
                               Linear(16, 4, rng=rng)), [True, False]),
    "relu_fed_by_input": (
        lambda rng: Sequential(ReLU(), Linear(10, 16, rng=rng), ReLU(),
                               Linear(16, 4, rng=rng)), [False, True]),
}


def _relu_nodes(stepper):
    """The ReLU kernels of the stepper's cross-entropy plans (a plan's
    signature starts with the identity of the step function it traced)."""
    return [node for sig, plan in stepper._plans.items()
            if sig[0] == id(cross_entropy_step) for _, node in plan._forwards
            if node.op is ops.RELU]


def _in_place(node):
    (src, _), = node.srcs.values()
    return node.out is getattr(src, "out", None)


class TestReluBufferReuse:
    """A ReLU runs in place over its producer's buffer only when that
    producer is a Linear whose output nothing else reads.  Reused or
    refused, every case must stay byte-identical to eager (signed zeros
    included)."""

    def _run(self, make, dtype, replay):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(24, 10))
        y = rng.integers(0, 4, size=24)
        with _dtype_scope(dtype), use_graph_replay(replay):
            model = make(np.random.default_rng(41))
            stepper = GraphReplay(model, Adam(model.parameters(), lr=1e-2))
            losses = [stepper.step_fn(cross_entropy_step, {"x": x, "y": y})
                      for _ in range(6)]
        params = [p.data.tobytes() for p in model.parameters()]
        return (params, losses), stepper

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(REUSE_CASES))
    def test_bytes_match_eager(self, case, dtype):
        make, expected = REUSE_CASES[case]
        replayed, stepper = self._run(make, dtype, replay=True)
        eager, _ = self._run(make, dtype, replay=False)
        assert replayed == eager
        assert stepper.stats.eager_steps == 0
        assert [_in_place(n) for n in _relu_nodes(stepper)] == expected

# --------------------------------------------------------------------------- #
# One case per op-table entry
# --------------------------------------------------------------------------- #


def _ce_step(model, batch):
    return F.cross_entropy(model(batch["x"]), batch["y"])


def _soft_step(model, batch):
    return F.soft_cross_entropy(model(batch["x"]), batch["probs"].data)


def _sqerr_step(model, batch):
    return F.l2_loss(model(batch["x"]), batch["target"].data)


def _glue_step(model, batch):
    logits = model(batch["x"])
    return F.cross_entropy(logits, batch["y"]) \
        + batch["c"] * F.l2_loss(logits, batch["target"].data)


def _mlp(rng):
    return Sequential(Linear(10, 16, rng=rng), ReLU(), Linear(16, 4, rng=rng))


#: op-table entry -> (model factory, step function) of a case whose
#: compiled plan runs that op; ``tests/nn/test_op_table.py`` checks that
#: every entry of ``repro.nn.ops.TABLE`` has one
TABLE_CASES = {
    "linear": (_mlp, _ce_step),
    "relu": (_mlp, _ce_step),
    "add": (_mlp, _glue_step),
    "mul": (_mlp, _glue_step),
    "cross_entropy": (_mlp, _ce_step),
    "soft_cross_entropy": (_mlp, _soft_step),
    "sqerr": (_mlp, _sqerr_step),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_table_op_replays_bit_identical_to_eager(name, dtype):
    make, step = TABLE_CASES[name]
    rng = np.random.default_rng(50)
    batch = {"x": rng.normal(size=(24, 10)),
             "y": rng.integers(0, 4, size=24),
             "probs": rng.dirichlet(np.ones(4), size=24),
             "target": rng.normal(size=(24, 4)),
             "c": np.asarray(0.5)}

    def run(replay):
        with _dtype_scope(dtype), use_graph_replay(replay):
            model = make(np.random.default_rng(51))
            stepper = GraphReplay(model, Adam(model.parameters(), lr=1e-2))
            losses = [stepper.step_fn(step, batch) for _ in range(5)]
        return (_params(model), losses), stepper

    (replayed, losses_r), stepper = run(True)
    (eager, losses_e), _ = run(False)
    _assert_bit_identical(replayed, eager)
    assert losses_r == losses_e
    assert stepper.stats.eager_steps == 0 and stepper.stats.replays == 4
    (plan,) = stepper._plans.values()
    assert any(node.op is ops.TABLE[name] for _, node in plan._forwards)


# --------------------------------------------------------------------------- #
# The plan is the trace: one node per ``apply`` call, in trace order
# --------------------------------------------------------------------------- #


def _joint_model(rng):
    from repro.backbones.backbone import (BackboneSpec, ClassificationModel,
                                          Encoder)
    from repro.modules.multitask import _JointModel

    spec = BackboneSpec("t", input_dim=10, hidden_dims=(16,), feature_dim=8)
    model = ClassificationModel(Encoder(spec, rng=rng), 4, rng=rng)
    return _JointModel(model, Linear(8, 3, rng=rng))


def _plan_trace_cases():
    from repro.modules.fixmatch import _two_view_step
    from repro.modules.multitask import _joint_step

    rng = np.random.default_rng(60)
    mlp = lambda rng: MLP(10, [16], 4, rng=rng)  # noqa: E731
    return {
        "step": (mlp, cross_entropy_step, {
            "x": rng.normal(size=(24, 10)),
            "y": rng.integers(0, 4, size=24)}),
        "fixmatch_two_view": (mlp, _two_view_step, {
            "weak_x": rng.normal(size=(8, 10)),
            "labels": rng.integers(0, 4, size=8),
            "strong_x": rng.normal(size=(24, 10)),
            "pseudo": rng.integers(0, 4, size=24),
            "mask_w": (rng.random(24) < 0.6).astype(float),
            "cons_w": np.asarray(0.7)}),
        "multitask_joint": (_joint_model, _joint_step, {
            "target_x": rng.normal(size=(8, 10)),
            "target_y": rng.integers(0, 4, size=8),
            "aux_x": rng.normal(size=(24, 10)),
            "aux_y": rng.integers(0, 3, size=24),
            "aux_w": np.asarray(1.0)}),
    }


PLAN_TRACE_CASES = _plan_trace_cases()


@pytest.mark.parametrize("case", sorted(PLAN_TRACE_CASES))
def test_plan_nodes_are_the_traced_ops_in_order(case):
    from repro.nn.replay import _wrap_inputs
    from repro.nn.tensor import trace_ops

    make, fn, batch = PLAN_TRACE_CASES[case]
    model = make(np.random.default_rng(61))
    stepper = GraphReplay(model, SGD(model.parameters(), lr=0.05))
    records = []
    with trace_ops(records):
        fn(model, _wrap_inputs(batch)[0])
    stepper.step_fn(fn, batch)
    assert stepper.stats.captures == 1 and stepper.stats.eager_steps == 0
    (plan,) = stepper._plans.values()
    assert [(node.index, node.op) for _, node in plan._forwards] == \
        [(i, op) for i, (op, _, _, _) in enumerate(records)]
