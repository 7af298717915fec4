"""A capture step holds one copy of its step.

The capture runs the eager step (forward, backward, update) and only then
compiles the plan, after the traced outputs have dropped their gradients.
So the eager gradients and the plan's buffers are never alive at once: the
capture's peak is the eager step's own peak, or the traced activations
plus the plan's buffers, whichever is larger.
"""

import tracemalloc

import numpy as np

from repro.nn import (MLP, SGD, GraphReplay, cross_entropy_step,
                      use_graph_replay)
from repro.nn import replay as replay_module


def _wide_mlp():
    model = MLP(256, [256, 256], 256, rng=np.random.default_rng(0))
    return model, SGD(model.parameters(), lr=0.1)


def _batch():
    rng = np.random.default_rng(1)
    return rng.normal(size=(2048, 256)), rng.integers(0, 256, size=2048)


def _plan_buffers(stepper):
    """``(all bytes, gradient bytes)`` of the arrays the one compiled plan
    owns: node buffers and private accumulation buffers, each counted once
    (views such as the optimizer's gradient slots are not the plan's)."""
    (plan,) = stepper._plans.values()
    owned, grads = {}, {}
    for _, node in plan._forwards:
        for name, value in vars(node).items():
            if isinstance(value, np.ndarray) and value.base is None:
                owned[id(value)] = value.nbytes
                if name == "grad":
                    grads[id(value)] = value.nbytes
        for _, _, tmp, _ in node.deposits:
            if tmp is not None:
                owned[id(tmp)] = tmp.nbytes
    return sum(owned.values()), sum(grads.values())


def _traced_peak(replay):
    model, optimizer = _wide_mlp()
    stepper = GraphReplay(model, optimizer)
    x, y = _batch()
    tracemalloc.start()
    try:
        with use_graph_replay(replay):
            stepper.step_fn(cross_entropy_step, {"x": x, "y": y})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, stepper


def test_compile_runs_after_the_eager_step_with_no_gradient_held(
        monkeypatch):
    model, optimizer = _wide_mlp()
    before = [p.data.copy() for p in model.parameters()]
    seen = []
    compile_plan = replay_module._compile

    def compile_after_checking(records, root, input_keys, optimizer):
        seen.append({
            "updated": all(not np.array_equal(p.data, old) for p, old
                           in zip(model.parameters(), before)),
            "held": [record[0].name for record in records
                     if record[3].grad is not None],
        })
        return compile_plan(records, root, input_keys, optimizer)

    monkeypatch.setattr(replay_module, "_compile", compile_after_checking)
    stepper = GraphReplay(model, optimizer)
    x, y = _batch()
    stepper.step_fn(cross_entropy_step, {"x": x[:64], "y": y[:64]})
    assert stepper.stats.captures == 1
    assert seen == [{"updated": True, "held": []}]


def test_capture_never_holds_eager_gradients_and_plan_buffers_at_once():
    eager_peak, eager = _traced_peak(replay=False)
    assert eager.stats.eager_steps == 1
    capture_peak, captured = _traced_peak(replay=True)
    assert captured.stats.captures == 1
    plan_bytes, plan_grad_bytes = _plan_buffers(captured)
    # The eager step holds at least one gradient per traced output the
    # plan gives a gradient buffer, so a capture that also held those
    # would peak at or above ``eager_peak + plan_bytes``.  Holding them
    # only one at a time, it pays at most the plan's other buffers.
    assert capture_peak < eager_peak + plan_bytes - plan_grad_bytes, (
        capture_peak, eager_peak, plan_bytes, plan_grad_bytes)
