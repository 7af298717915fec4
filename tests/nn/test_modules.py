"""Tests for neural-network layers and the Module machinery."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, ReLU, Sequential, Tensor


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer(Tensor(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[4.5, 4.5]])

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 2)


class TestActivations:
    def test_relu(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(ReLU()(x).data, [[0.0, 2.0]])


class TestSequentialAndMLP:
    def test_sequential_order_and_indexing(self):
        model = Sequential(Linear(2, 3), ReLU(), Linear(3, 1))
        assert len(model) == 3
        assert isinstance(model[1], ReLU)
        out = model(Tensor(np.ones((4, 2))))
        assert out.shape == (4, 1)

    def test_mlp_parameter_count(self):
        model = MLP(10, [20], 5, rng=np.random.default_rng(0))
        expected = 10 * 20 + 20 + 20 * 5 + 5
        assert model.num_parameters() == expected

    def test_mlp_is_a_linear_relu_chain(self):
        model = MLP(8, [16, 16], 3, rng=np.random.default_rng(0))
        assert [type(layer) for layer in model.net.layers] == [
            Linear, ReLU, Linear, ReLU, Linear]
        out = model(Tensor(np.random.default_rng(0).normal(size=(12, 8))))
        assert out.shape == (12, 3)


class TestModuleMachinery:
    def test_named_parameters_are_unique(self):
        model = MLP(4, [8, 8], 2)
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_roundtrip(self):
        source = MLP(6, [12], 3, rng=np.random.default_rng(0))
        target = MLP(6, [12], 3, rng=np.random.default_rng(1))
        target.load_state_dict(source.state_dict())
        x = Tensor(np.random.default_rng(2).normal(size=(5, 6)))
        np.testing.assert_allclose(source(x).data, target(x).data)

    def test_state_dict_shape_mismatch(self):
        source = MLP(6, [12], 3)
        target = MLP(6, [10], 3)
        with pytest.raises((ValueError, KeyError)):
            target.load_state_dict(source.state_dict())

    def test_state_dict_missing_key(self):
        model = MLP(4, [4], 2)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_state_dict_unexpected_key(self):
        model = MLP(4, [4], 2)
        state = model.state_dict()
        state["net.layers.9.weight"] = np.zeros((4, 4))
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_state_dict_holds_only_parameters(self):
        model = MLP(4, [4], 2)
        assert list(model.state_dict()) == [
            name for name, _ in model.named_parameters()]

    def test_clone_is_independent(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        clone = model.clone()
        clone.weight.data[...] = 0.0
        assert not np.allclose(model.weight.data, 0.0)
