"""Tests for neural-network layers and the Module machinery."""

import numpy as np
import pytest

from repro.nn import (MLP, BatchNorm1d, Dropout, Linear, Module,
                      Parameter, ReLU, Sequential, Tanh, Tensor)


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


class TestActivationsAndDropout:
    def test_relu_tanh_identity(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(ReLU()(x).data, [[0.0, 2.0]])
        np.testing.assert_allclose(Tanh()(x).data, np.tanh([[-1.0, 2.0]]))

    def test_dropout_off_in_eval(self):
        dropout = Dropout(0.9, rng=np.random.default_rng(0))
        dropout.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(dropout(x).data, np.ones((4, 4)))

    def test_dropout_scales_in_train(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        dropout.train()
        out = dropout(Tensor(np.ones((1000, 1)))).data
        # Surviving activations are scaled by 1/keep, so the mean stays ~1.
        assert out.mean() == pytest.approx(1.0, abs=0.15)

    def test_dropout_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalizes_in_train_mode(self):
        bn = BatchNorm1d(3)
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 3))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(3), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), np.ones(3), atol=1e-2)

    def test_running_stats_used_in_eval(self):
        bn = BatchNorm1d(2, momentum=1.0)
        x = np.random.default_rng(1).normal(2.0, 1.0, size=(50, 2))
        bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(2), atol=0.1)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.ones((2, 4))))


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

    def test_mlp_with_batchnorm_and_dropout(self):
        model = MLP(8, [16, 16], 3, dropout=0.2, batch_norm=True,
                    rng=np.random.default_rng(0))
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

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), MLP(4, [4], 2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears_gradients(self):
        model = Linear(3, 2)
        out = model(Tensor(np.ones((1, 3)), requires_grad=False))
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_batchnorm_buffers_in_state_dict(self):
        bn = BatchNorm1d(3)
        state = bn.state_dict()
        assert any("running_mean" in key for key in state)

    def test_clone_is_independent(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        clone = model.clone()
        clone.weight.data[...] = 0.0
        assert not np.allclose(model.weight.data, 0.0)
