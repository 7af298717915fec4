"""The optimizers' parameter arena.

An optimizer copies its parameters into one contiguous buffer and rebinds
each ``p.data`` to a view of it, so its update is one ufunc call over every
parameter.  Whatever happens to ``p.data`` between steps, every step must
give the bytes of the plain per-parameter update, written out here in the
optimizers' op order.
"""

import numpy as np
import pytest

from repro.nn import MLP, SGD, Adam, Parameter


class _ReferenceSGD:
    """Nesterov SGD with weight decay, one list entry at a time."""

    def __init__(self, params, lr, momentum, weight_decay):
        self.params, self.lr = params, lr
        self.momentum, self.weight_decay = momentum, weight_decay
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self):
        for p, velocity in zip(self.params, self.velocity):
            grad = p.data * self.weight_decay
            grad += p.grad
            velocity *= self.momentum
            velocity += grad
            update = velocity * self.momentum
            update += grad
            np.subtract(p.data, update * self.lr, out=p.data)


class _ReferenceAdam:
    """Adam with weight decay, one list entry at a time."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999),
                 eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        (self.beta1, self.beta2), self.eps = betas, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
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
        if reference:
            return _ReferenceSGD(params, lr=0.05, momentum=0.9,
                                 weight_decay=1e-3)
        return SGD(params, lr=0.05, momentum=0.9, nesterov=True,
                   weight_decay=1e-3)
    if reference:
        return _ReferenceAdam(params, lr=0.01, weight_decay=1e-3)
    return Adam(params, lr=0.01, weight_decay=1e-3)


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
def test_mixed_dtypes_take_the_per_parameter_path(kind):
    def build_params():
        rng = np.random.default_rng(4)
        weight = Parameter(rng.normal(size=(4, 3)))
        bias = Parameter(np.zeros(3))
        bias.data = rng.normal(size=3).astype(np.float32)
        return [weight, bias]

    params, ref_params = build_params(), build_params()
    arrays = [p.data for p in params]
    opt = _build(kind, params, reference=False)
    ref_opt = _build(kind, ref_params, reference=True)
    # No arena: the parameters keep their own arrays.
    assert all(p.data is a for p, a in zip(params, arrays))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(4):
        _set_grads(params, rng)
        _set_grads(ref_params, ref_rng)
        opt.step()
        ref_opt.step()
        assert _same_bytes(params, ref_params)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_repeated_parameter_takes_the_per_parameter_path(kind):
    # A parameter listed twice cannot be bound to two arena views, so the
    # optimizer runs per parameter: the entry is updated twice in list
    # order, with a state slot per entry.
    model, ref = _model(0), _model(0)
    params, ref_params = model.parameters(), ref.parameters()
    arrays = [p.data for p in params]
    opt = _build(kind, params + params[:1], reference=False)
    ref_opt = _build(kind, ref_params + ref_params[:1], reference=True)
    assert all(p.data is a for p, a in zip(params, arrays))
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):
        _set_grads(params, rng)
        _set_grads(ref_params, ref_rng)
        opt.step()
        ref_opt.step()
        assert _same_bytes(params, ref_params)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_rebinding_to_another_dtype_retires_the_arena(kind):
    model = _model(0, np.float32)
    opt = _build(kind, model.parameters(), reference=False)
    rng = np.random.default_rng(6)
    _set_grads(model.parameters(), rng)
    opt.step()
    widened = model.parameters()[1]
    widened.data = widened.data.astype(np.float64)
    _set_grads(model.parameters(), rng)
    before = [p.data.copy() for p in model.parameters()]
    opt.step()
    assert widened.data.dtype == np.float64
    assert all(not np.array_equal(p.data, b)
               for p, b in zip(model.parameters(), before))


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


_OPTION_SETS = {
    "sgd_plain": lambda params: SGD(params, lr=0.05),
    "sgd_momentum": lambda params: SGD(params, lr=0.05, momentum=0.9),
    "sgd_nesterov_decay": lambda params: SGD(
        params, lr=0.05, momentum=0.9, nesterov=True, weight_decay=1e-3),
    "adam": lambda params: Adam(params, lr=0.01),
    "adam_decay": lambda params: Adam(params, lr=0.01, weight_decay=1e-3),
}


@pytest.mark.parametrize("options", sorted(_OPTION_SETS))
def test_flat_and_per_parameter_paths_give_the_same_bytes(options):
    # Each update rule is written once and runs either over the whole arena
    # or over each parameter's own arrays; every option branch must give
    # the same bytes both ways.  A float32 bystander that never gets a
    # gradient puts the second optimizer on the per-parameter path.
    build = _OPTION_SETS[options]
    flat_model, loop_model = _model(0), _model(0)
    bystander = Parameter(np.zeros(2))
    bystander.data = bystander.data.astype(np.float32)
    flat = build(flat_model.parameters())
    loop = build(loop_model.parameters() + [bystander])
    assert flat._arena is not None and loop._arena is None
    rng, loop_rng = np.random.default_rng(10), np.random.default_rng(10)
    for _ in range(4):
        _set_grads(flat_model.parameters(), rng)
        _set_grads(loop_model.parameters(), loop_rng)
        flat.step()
        loop.step()
        assert _same_bytes(flat_model.parameters(), loop_model.parameters())
    assert not bystander.data.any()
