"""Unit and property-based tests for the autograd engine.

The op kernels themselves are fuzzed against finite differences in
``test_grad_properties.py``; these tests pin the tape's mechanics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor


class TestBasicOps:
    def test_add_backward_broadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_scalar_interop(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = (2.0 * x + 1.0) * 0.5
        out.backward()
        np.testing.assert_allclose(out.data, [1.5, 2.5])
        np.testing.assert_allclose(x.grad, [1.0, 1.0])


class TestElementwise:
    def test_relu_gradient_mask(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        x.relu().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])


class TestGraphMechanics:
    def test_backward_requires_grad(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_gradient_accumulation_over_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dy/dx = 2x via two parents of the same tensor
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain_does_not_recurse(self):
        # The topological sort is iterative, so very deep graphs must not hit
        # Python's recursion limit.
        x = Tensor([1.0], requires_grad=True)
        out = x
        for _ in range(3000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(x.grad, [1.0])


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)),
       hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)))
def test_property_addition_is_commutative(a, b):
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_allclose(left, right)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-2, 2, allow_nan=False)))
def test_property_relu_output_nonnegative_and_matches_numpy(values):
    out = Tensor(values).relu().data
    assert (out >= 0).all()
    np.testing.assert_allclose(out, np.maximum(values, 0))
