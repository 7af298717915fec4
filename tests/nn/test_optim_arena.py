"""The optimizers' parameter arena.

An optimizer copies its parameters into one contiguous buffer and rebinds
each ``p.data`` to a view of it, so its update is one ufunc call over every
parameter, or one per run of consecutive parameters that have a gradient.
Whatever happens to ``p.data`` between steps, every step must give the bytes
of the plain per-parameter update, written out here in the optimizers' op
order.  The arena is the only update path: parameters it cannot hold are
refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, SGD, Adam, Parameter


class _ReferenceSGD:
    """SGD with momentum, Nesterov and weight decay, one list entry at a
    time; an entry without a gradient is skipped."""

    def __init__(self, params, lr, momentum=0.0, nesterov=False,
                 weight_decay=0.0):
        self.params, self.lr = params, lr
        self.momentum, self.nesterov = momentum, nesterov
        self.weight_decay = weight_decay
        self.state = [(np.zeros_like(p.data),) for p in params]

    def step(self):
        for p, (velocity,) in zip(self.params, self.state):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = p.data * self.weight_decay
                grad += p.grad
            update = grad
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
                if self.nesterov:
                    update = velocity * self.momentum
                    update += grad
            np.subtract(p.data, update * self.lr, out=p.data)


class _ReferenceAdam:
    """Adam with weight decay, one list entry at a time; an entry without a
    gradient is skipped (the step count still advances)."""

    def __init__(self, params, lr, weight_decay=0.0, betas=(0.9, 0.999),
                 eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        (self.beta1, self.beta2), self.eps = betas, eps
        self.state = [(np.zeros_like(p.data), np.zeros_like(p.data))
                      for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, (m, v) in zip(self.params, self.state):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = p.data * self.weight_decay
                grad += p.grad
            m *= self.beta1
            m += grad * (1.0 - self.beta1)
            sq = grad * grad
            sq *= 1.0 - self.beta2
            v *= self.beta2
            v += sq
            denom = np.sqrt(v / bias2)
            denom += self.eps
            update = m / denom
            update *= self.lr / bias1
            np.subtract(p.data, update, out=p.data)


def _model(seed, dtype=np.float64):
    model = MLP(6, [8], 3, rng=np.random.default_rng(seed))
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    return model


def _set_grads(params, rng):
    for p in params:
        p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)


def _same_bytes(params_a, params_b):
    return all(a.data.dtype == b.data.dtype
               and a.data.tobytes() == b.data.tobytes()
               for a, b in zip(params_a, params_b))


def _build(kind, params, reference):
    if kind == "sgd":
        cls = _ReferenceSGD if reference else SGD
        return cls(params, lr=0.05, momentum=0.9, nesterov=True,
                   weight_decay=1e-3)
    cls = _ReferenceAdam if reference else Adam
    return cls(params, lr=0.01, weight_decay=1e-3)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestArenaMatchesPerParameterUpdate:
    def test_plain_steps(self, kind, dtype):
        model, ref = _model(0, dtype), _model(0, dtype)
        opt = _build(kind, model.parameters(), reference=False)
        ref_opt = _build(kind, ref.parameters(), reference=True)
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(5):
            _set_grads(model.parameters(), rng)
            _set_grads(ref.parameters(), ref_rng)
            opt.step()
            ref_opt.step()
            assert _same_bytes(model.parameters(), ref.parameters())
        # The parameters really live in one buffer.
        arena = model.parameters()[0].data.base
        assert arena is not None
        assert all(p.data.base is arena for p in model.parameters())

    def test_load_state_dict_between_steps(self, kind, dtype):
        model, ref = _model(0, dtype), _model(0, dtype)
        opt = _build(kind, model.parameters(), reference=False)
        ref_opt = _build(kind, ref.parameters(), reference=True)
        checkpoint = _model(7, dtype).state_dict()
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        for step in range(6):
            if step in (2, 4):
                model.load_state_dict(checkpoint)
                ref.load_state_dict(checkpoint)
            _set_grads(model.parameters(), rng)
            _set_grads(ref.parameters(), ref_rng)
            opt.step()
            ref_opt.step()
            assert _same_bytes(model.parameters(), ref.parameters())
        # The loaded arrays were copied back into the arena, which the
        # checkpoint itself does not alias.
        assert _same_bytes(model.parameters(), ref.parameters())
        assert not any(np.shares_memory(p.data, value)
                       for p in model.parameters()
                       for value in checkpoint.values())

    def test_parameter_shared_by_two_optimizers(self, kind, dtype):
        model, ref = _model(0, dtype), _model(0, dtype)
        params, ref_params = model.parameters(), ref.parameters()
        # The first layer's weight belongs to both optimizers.
        first = _build(kind, params[:3], reference=False)
        second = _build(kind, [params[0]] + params[3:], reference=False)
        ref_first = _build(kind, ref_params[:3], reference=True)
        ref_second = _build(kind, [ref_params[0]] + ref_params[3:],
                            reference=True)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(4):
            for opt, ref_opt in ((first, ref_first), (second, ref_second)):
                _set_grads(params, rng)
                _set_grads(ref_params, ref_rng)
                opt.step()
                ref_opt.step()
                assert _same_bytes(params, ref_params)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_mixed_dtypes_are_refused(kind):
    rng = np.random.default_rng(4)
    weight = Parameter(rng.normal(size=(4, 3)))
    bias = Parameter(np.zeros(3))
    bias.data = rng.normal(size=3).astype(np.float32)
    arrays = [weight.data, bias.data]
    with pytest.raises(ValueError, match="share one dtype"):
        _build(kind, [weight, bias], reference=False)
    # Refused before adopting anything: the parameters keep their arrays.
    assert weight.data is arrays[0] and bias.data is arrays[1]


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_repeated_parameter_is_refused(kind):
    # A parameter listed twice cannot be bound to two arena views.
    params = _model(0).parameters()
    arrays = [p.data for p in params]
    with pytest.raises(ValueError, match="twice"):
        _build(kind, params + params[:1], reference=False)
    assert all(p.data is a for p, a in zip(params, arrays))


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("rebind", ["dtype", "shape"])
def test_rebinding_to_an_array_that_does_not_fit_raises(kind, rebind):
    model, ref = _model(0, np.float32), _model(0, np.float32)
    opt = _build(kind, model.parameters(), reference=False)
    ref_opt = _build(kind, ref.parameters(), reference=True)
    rng = np.random.default_rng(6)
    _set_grads(model.parameters(), rng)
    _set_grads(ref.parameters(), np.random.default_rng(6))
    opt.step()
    ref_opt.step()
    first = [p.data.copy() for p in model.parameters()]
    rebound = model.parameters()[1]
    rebound.data = (rebound.data.astype(np.float64) if rebind == "dtype"
                    else np.zeros(rebound.data.size + 1, np.float32))
    _set_grads(model.parameters(), rng)
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(ValueError, match="no longer fits"):
        opt.step()
    assert all(np.array_equal(p.data, b)
               for p, b in zip(model.parameters(), before))
    # Rebound to an array that fits, the next step is the second update:
    # the refused one advanced no state (Adam's step count included).
    rebound.data = first[1].copy()
    _set_grads(model.parameters(), np.random.default_rng(7))
    _set_grads(ref.parameters(), np.random.default_rng(7))
    opt.step()
    ref_opt.step()
    assert _same_bytes(model.parameters(), ref.parameters())


def test_clone_of_an_adopted_model_is_independent():
    model = _model(0)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    clone = model.clone()
    clone_bytes = [p.data.tobytes() for p in clone.parameters()]
    assert not any(np.shares_memory(p.data, q.data)
                   for p in model.parameters() for q in clone.parameters())
    rng = np.random.default_rng(8)
    _set_grads(model.parameters(), rng)
    opt.step()
    assert [p.data.tobytes() for p in clone.parameters()] == clone_bytes

    # An optimizer on the clone adopts the clone's parameters only.
    model_bytes = [p.data.tobytes() for p in model.parameters()]
    clone_opt = SGD(clone.parameters(), lr=0.1, momentum=0.9)
    _set_grads(clone.parameters(), rng)
    clone_opt.step()
    assert [p.data.tobytes() for p in model.parameters()] == model_bytes
    assert [p.data.tobytes() for p in clone.parameters()] != clone_bytes


_OPTIONS = {
    "sgd_plain": ("sgd", {}),
    "sgd_momentum": ("sgd", {"momentum": 0.9}),
    "sgd_momentum_decay": ("sgd", {"momentum": 0.9, "weight_decay": 1e-3}),
    "sgd_nesterov_decay": ("sgd", {"momentum": 0.9, "nesterov": True,
                                   "weight_decay": 1e-3}),
    "adam": ("adam", {}),
    "adam_decay": ("adam", {"weight_decay": 1e-3}),
}


@st.composite
def _coverage_case(draw):
    shapes = draw(st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
        min_size=1, max_size=6))
    steps = draw(st.lists(
        st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)),
        min_size=1, max_size=5))
    return (shapes, steps, draw(st.sampled_from(sorted(_OPTIONS))),
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.integers(0, 2 ** 32 - 1)))


def _slot_state(opt, i):
    """Slot ``i`` of the optimizer's momentum buffer (zero without
    momentum, like the reference's) or its two moment buffers."""
    start, stop = opt._offsets[i], opt._offsets[i + 1]
    flats = opt._state[:2] if isinstance(opt, Adam) else opt._state[:1]
    return tuple(flat[start:stop] for flat in flats)


@settings(max_examples=200, deadline=None)
@given(_coverage_case())
def test_partial_coverage_matches_the_per_parameter_update(case):
    # Each step gives a random subset of the parameters a gradient.  The
    # covered ones must get the per-parameter update's bytes; the others
    # keep their data and their optimizer state.
    shapes, steps, options, dtype, seed = case
    kind, kwargs = _OPTIONS[options]
    rng = np.random.default_rng(seed)
    params, ref_params = [], []
    for shape in shapes:
        values = rng.normal(size=shape).astype(dtype)
        for group in (params, ref_params):
            p = Parameter(np.zeros(shape))
            p.data = values.copy()
            group.append(p)
    lr = 0.05 if kind == "sgd" else 0.01
    opt = (SGD if kind == "sgd" else Adam)(params, lr=lr, **kwargs)
    ref_opt = (_ReferenceSGD if kind == "sgd" else _ReferenceAdam)(
        ref_params, lr=lr, **kwargs)
    for mask in steps:
        before = [(p.data.copy(), [s.copy() for s in ref_opt.state[i]])
                  for i, p in enumerate(params)]
        for p, q, covered in zip(params, ref_params, mask):
            grad = rng.normal(size=p.data.shape).astype(dtype)
            p.grad, q.grad = (grad, grad.copy()) if covered else (None, None)
        opt.step()
        ref_opt.step()
        assert _same_bytes(params, ref_params)
        for i, (covered, (data, state)) in enumerate(zip(mask, before)):
            got = _slot_state(opt, i)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(got, ref_opt.state[i]))
            if not covered:
                assert params[i].data.tobytes() == data.tobytes()
                assert all(a.tobytes() == b.tobytes()
                           for a, b in zip(got, state))
