"""The leaf chain (``repro.nn.leaf_chain``), the one compiled inference
forward: byte for byte the eager ``no_grad`` forward for every leaf layer of
the op table, or None for a model that is not a chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (SGD, Tensor, default_dtype, leaf_chain, no_grad, ops,
                      predict_logits)
from repro.nn.modules import Linear, Module, ReLU, Sequential

LAYERS = ("linear", "linear_no_bias", "relu", "relu_method")
DTYPES = (np.float32, np.float64)


class _Method(Module):
    """An activation called as a tensor method inside a module with no op."""

    def forward(self, x):
        return x.relu()


def _layer(kind, width, out_width, rng):
    """One layer on ``width`` features; returns it and its width."""
    if kind in ("linear", "linear_no_bias"):
        layer = Linear(width, out_width, bias=kind == "linear", rng=rng)
        if layer.bias is not None:
            layer.bias.data[...] = rng.normal(size=out_width)
        return layer, out_width
    return (_Method() if kind == "relu_method" else ReLU()), width


@st.composite
def _chain_case(draw):
    kinds = draw(st.lists(st.sampled_from(LAYERS), min_size=1, max_size=6))
    widths = draw(st.lists(st.integers(1, 9), min_size=len(kinds) + 1,
                           max_size=len(kinds) + 1))
    rows = draw(st.one_of(st.just(1), st.just(2),
                          st.integers(1, 16).map(lambda n: 2 * n + 1)))
    return (kinds, widths, rows, draw(st.sampled_from(DTYPES)),
            draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150, deadline=None)
@given(_chain_case())
def test_chain_forward_is_the_eager_forward_byte_for_byte(case):
    kinds, widths, rows, dtype, seed = case
    rng = np.random.default_rng(seed)
    with default_dtype(dtype):
        layers, width = [], widths[0]
        for kind, out_width in zip(kinds, widths[1:]):
            layer, width = _layer(kind, width, out_width, rng)
            layers.append(layer)
        model = Sequential(*layers)
        x = rng.normal(size=(rows, widths[0]))
        with no_grad():
            eager = model(Tensor(x)).data
    chain = leaf_chain(model, widths[0], dtype)
    assert chain is not None
    got = chain(x)
    assert got.dtype == eager.dtype == np.dtype(dtype)
    assert got.shape == eager.shape
    assert got.tobytes() == eager.tobytes()


class _Residual(Module):
    """Tensor math between layers: a traced add."""

    def __init__(self, rng):
        super().__init__()
        self.fc = Linear(6, 6, rng=rng)

    def forward(self, x):
        h = self.fc(x)
        return h + x


class _Skip(Module):
    """The second layer reads the input, not the first layer's output."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(6, 6, rng=rng)
        self.fc2 = Linear(6, 3, rng=rng)

    def forward(self, x):
        self.fc1(x)
        return self.fc2(x)


class _Untraced(Module):
    """Array math outside the op table after the last layer."""

    def __init__(self, rng):
        super().__init__()
        self.fc = Linear(6, 3, rng=rng)

    def forward(self, x):
        return Tensor(self.fc(x).data * 2.0)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("make", [_Residual, _Skip, _Untraced])
def test_a_model_that_is_not_a_chain_gives_none(make, dtype):
    with default_dtype(dtype):
        model = make(np.random.default_rng(0))
    assert leaf_chain(model, 6, dtype) is None


class _TensorMethods(Module):
    """A forward that calls ``relu()`` on tensors directly."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(6, 12, rng=rng)
        self.fc2 = Linear(12, 3, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()).relu()


@pytest.mark.parametrize("dtype", DTYPES)
def test_tensor_method_activations_are_a_chain(dtype):
    with default_dtype(dtype):
        model = _TensorMethods(np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(7, 6))
        eager = predict_logits(model, x)
    chain = leaf_chain(model, 6, dtype)
    assert chain is not None
    assert [op for op, _ in chain.leaves] == [ops.LINEAR, ops.RELU,
                                              ops.LINEAR, ops.RELU]
    assert chain(x).tobytes() == eager.tobytes()


def test_reads_live_weights():
    # Kernels read ``p.data`` on every call: in-place updates and the
    # optimizer arena's rebinding are picked up without retracing.
    model = Sequential(Linear(8, 16, rng=np.random.default_rng(1)), ReLU(),
                       Linear(16, 4, rng=np.random.default_rng(2)))
    chain = leaf_chain(model, 8, np.float64)
    x = np.random.default_rng(3).normal(size=(5, 8))
    before = chain(x)
    SGD(model.parameters(), lr=0.1)  # rebinds every p.data into its arena
    for p in model.parameters():
        p.data += 0.1
    with no_grad():
        eager = model(Tensor(x)).data
    after = chain(x)
    assert not np.array_equal(before, after)
    assert after.tobytes() == eager.tobytes()

