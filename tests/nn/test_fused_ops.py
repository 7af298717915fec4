"""Gradient-correctness tests for the fused engine ops.

The ``Linear`` layer and the fused losses are single table ops with
hand-written VJPs, so their gradients are checked against central finite
differences in both float32 and float64, and against pure-NumPy closed
forms (``test_grad_properties.py``).  The ``no_grad`` inference mode is
checked to build no backward tape at all.
"""

import numpy as np
import pytest

from repro.nn import Tensor, default_dtype, no_grad
from repro.nn import functional as F
from repro.nn.modules import Linear
from repro.nn.tensor import is_grad_enabled

from .test_grad_properties import np_log_softmax, np_softmax

# Acceptance tolerances per dtype: float32 carries ~7 decimal digits, so the
# finite-difference probe uses a larger step and looser tolerance.
DTYPE_CASES = [
    pytest.param(np.float64, 1e-6, 1e-7, id="float64"),
    pytest.param(np.float32, 1e-2, 1e-4, id="float32"),
]


def finite_difference(fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        out[i] = (upper - lower) / (2.0 * eps)
    return grad


class TestFusedLinearGradients:
    @pytest.mark.parametrize("dtype,eps,tol", DTYPE_CASES)
    def test_matches_finite_differences(self, dtype, eps, tol):
        rng = np.random.default_rng(0)
        with default_dtype(dtype):
            x0 = rng.normal(size=(5, 4)).astype(dtype)
            w0 = rng.normal(size=(4, 3)).astype(dtype)
            b0 = rng.normal(size=3).astype(dtype)

            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            layer = Linear(4, 3)
            layer.weight, layer.bias = w, b
            out = layer(x)
            assert out.dtype == dtype
            out.backward()

            fd_x = finite_difference(
                lambda a: float((a @ w0.astype(np.float64)
                                 + b0.astype(np.float64)).sum()),
                x0.astype(np.float64).copy(), eps)
            fd_w = finite_difference(
                lambda a: float((x0.astype(np.float64) @ a
                                 + b0.astype(np.float64)).sum()),
                w0.astype(np.float64).copy(), eps)
            fd_b = finite_difference(
                lambda a: float((x0.astype(np.float64)
                                 @ w0.astype(np.float64) + a).sum()),
                b0.astype(np.float64).copy(), eps)
            np.testing.assert_allclose(x.grad, fd_x, atol=tol, rtol=tol)
            np.testing.assert_allclose(w.grad, fd_w, atol=tol, rtol=tol)
            np.testing.assert_allclose(b.grad, fd_b, atol=tol, rtol=tol)

    def test_matches_unfused_reference(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(6, 5))
        layer = Linear(5, 3, rng=np.random.default_rng(2))
        weight, bias = layer.weight.data.copy(), layer.bias.data.copy()

        out = layer(Tensor(x0))
        out.backward()

        ones = np.ones((6, 3))
        np.testing.assert_allclose(out.data, x0 @ weight + bias, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, x0.T @ ones, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, ones.sum(axis=0),
                                   atol=1e-12)

    def test_rejects_inputs_that_are_not_2d(self):
        layer = Linear(4, 3, rng=np.random.default_rng(3))
        for shape in [(4,), (2, 2, 4)]:
            with pytest.raises(ValueError, match=r"expected \(n, 4\) input"):
                layer(Tensor(np.zeros(shape)))


class TestFusedCrossEntropyGradients:
    @pytest.mark.parametrize("dtype,eps,tol", DTYPE_CASES)
    def test_hard_targets_match_finite_differences(self, dtype, eps, tol):
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=(7, 4)).astype(dtype)
        targets = rng.integers(0, 4, size=7)
        with default_dtype(dtype):
            logits = Tensor(z0.copy(), requires_grad=True)
            loss = F.cross_entropy(logits, targets)
            loss.backward()

        def ref_loss(z):
            shifted = z - z.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-logp[np.arange(len(targets)), targets].mean())

        fd = finite_difference(ref_loss, z0.astype(np.float64).copy(), eps)
        np.testing.assert_allclose(logits.grad, fd, atol=tol, rtol=tol)

    @pytest.mark.parametrize("dtype,eps,tol", DTYPE_CASES)
    def test_soft_targets_match_finite_differences(self, dtype, eps, tol):
        rng = np.random.default_rng(4)
        z0 = rng.normal(size=(5, 3)).astype(dtype)
        probs = rng.dirichlet(np.ones(3), size=5)
        with default_dtype(dtype):
            logits = Tensor(z0.copy(), requires_grad=True)
            loss = F.soft_cross_entropy(logits, probs.astype(dtype))
            loss.backward()

        def ref_loss(z):
            shifted = z - z.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-(probs * logp).sum() / len(z))

        fd = finite_difference(ref_loss, z0.astype(np.float64).copy(), eps)
        np.testing.assert_allclose(logits.grad, fd, atol=tol, rtol=tol)

    def test_weighted_matches_unfused_reference(self):
        rng = np.random.default_rng(5)
        z0 = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        weights = rng.random(6)

        logits = Tensor(z0.copy(), requires_grad=True)
        loss = F.cross_entropy(logits, targets, sample_weights=weights)
        loss.backward()

        rows = np.arange(6)
        expected = -(weights * np_log_softmax(z0)[rows, targets]).sum() \
            / weights.sum()
        grad = np_softmax(z0)
        grad[rows, targets] -= 1.0
        grad *= weights[:, None] / weights.sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(logits.grad, grad, atol=1e-12)

    def test_soft_weighted_matches_unfused_reference(self):
        rng = np.random.default_rng(6)
        z0 = rng.normal(size=(5, 3))
        probs = rng.dirichlet(np.ones(3), size=5)
        weights = rng.random(5)

        logits = Tensor(z0.copy(), requires_grad=True)
        loss = F.soft_cross_entropy(logits, probs, sample_weights=weights)
        loss.backward()

        weighted = probs * weights[:, None]
        expected = -(weighted * np_log_softmax(z0)).sum() / weights.sum()
        grad = (np_softmax(z0) * weighted.sum(axis=1, keepdims=True)
                - weighted) / weights.sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(logits.grad, grad, atol=1e-12)

    def test_out_of_range_labels_raise(self):
        # The fused kernel validates labels: numpy indexing would otherwise
        # silently wrap negative labels.
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([-1, 2]))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 3]))

    def test_squared_error_targets_must_match_predictions(self):
        loss = F.l2_loss
        predictions = Tensor(np.ones((3, 1)), requires_grad=True)
        with pytest.raises(ValueError, match="targets of shape"):
            loss(predictions, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="targets must be constants"):
            loss(predictions, Tensor(np.zeros((3, 1)), requires_grad=True))

    def test_gradient_flows_through_upstream_ops(self):
        # The fused loss must keep the tape alive above it.
        x = Tensor(np.random.default_rng(7).normal(size=(4, 3)),
                   requires_grad=True)
        loss = F.cross_entropy(x * 2.0, np.array([0, 1, 2, 0]))
        loss.backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestNoGradMode:
    def test_no_backward_closures_allocated(self):
        layer = Linear(4, 3, rng=np.random.default_rng(8))
        x = Tensor(np.zeros((2, 4)))
        with no_grad():
            out = layer(x)
            deeper = (out.relu() + 1.0) * 2.0
        for tensor in (out, deeper):
            assert tensor.requires_grad is False
            assert tensor._backward is None
            assert tensor._parents == ()

    def test_restores_grad_mode_on_exit(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()
        layer = Linear(2, 2, rng=np.random.default_rng(9))
        out = layer(Tensor(np.zeros((1, 2))))
        assert out.requires_grad and out._backward is not None

    def test_backward_raises_on_no_grad_output(self):
        with no_grad():
            out = Linear(2, 2, rng=np.random.default_rng(10))(
                Tensor(np.zeros((1, 2))))
        with pytest.raises(RuntimeError):
            out.backward()
