"""Tests for the loss functions and the production softmax."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, softmax_rows
from repro.nn import functional as F


class TestOneHot:
    def test_basic(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([0, 3]), 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert F.one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]])
        targets = np.array([0, 1])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        manual = -np.mean([np.log(np.exp(logits[i, t]) / np.exp(logits[i]).sum())
                           for i, t in enumerate(targets)])
        assert loss == pytest.approx(manual, rel=1e-9)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1])).item()
        assert loss < 1e-6

    def test_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        F.cross_entropy(logits, np.array([1])).backward()
        # Gradient should be negative for the target class, positive elsewhere.
        assert logits.grad[0, 1] < 0
        assert logits.grad[0, 0] > 0 and logits.grad[0, 2] > 0

    def test_sample_weights(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        targets = np.array([0, 0])
        unweighted = F.cross_entropy(Tensor(logits), targets).item()
        weighted = F.cross_entropy(Tensor(logits), targets,
                                   sample_weights=np.array([1.0, 0.0])).item()
        assert weighted < unweighted


class TestSoftCrossEntropy:
    def test_equals_hard_ce_for_one_hot_targets(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        hard = F.cross_entropy(Tensor(logits), targets).item()
        soft = F.soft_cross_entropy(Tensor(logits), F.one_hot(targets, 4)).item()
        assert hard == pytest.approx(soft, rel=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.soft_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))

    def test_uniform_targets_minimized_by_uniform_logits(self):
        uniform = np.full((1, 4), 0.25)
        loss_uniform = F.soft_cross_entropy(Tensor(np.zeros((1, 4))), uniform).item()
        loss_peaked = F.soft_cross_entropy(Tensor(np.array([[10.0, 0, 0, 0]])),
                                           uniform).item()
        assert loss_uniform < loss_peaked


class TestRegressionLossesAndAccuracy:
    def test_l2_zero_for_identical(self):
        x = Tensor(np.ones((3, 2)))
        assert F.l2_loss(x, np.ones((3, 2))).item() == pytest.approx(0.0)

    def test_l2_loss_rowwise(self):
        predictions = Tensor(np.zeros((2, 3)))
        targets = np.ones((2, 3))
        assert F.l2_loss(predictions, targets).item() == pytest.approx(3.0)

    def test_accuracy(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert F.accuracy(scores, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert F.accuracy(np.zeros((0, 3)), np.array([])) == 0.0

    @pytest.mark.parametrize("targets", [[0, 1], [0, 1, 1, 0], [1], [[0], [1], [1]]],
                             ids=["too-few", "too-many", "one-broadcast",
                                  "column"])
    def test_accuracy_needs_one_target_per_row(self, targets):
        # a single target used to broadcast against every prediction
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        with pytest.raises(ValueError, match="targets"):
            F.accuracy(scores, np.array(targets))

    def test_accuracy_needs_a_score_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            F.accuracy(np.array([0.2, 0.8]), np.array([1, 0]))

    def test_accuracy_ties_go_to_the_lowest_class(self):
        scores = np.array([[0.5, 0.5], [0.3, 0.3]])
        assert F.accuracy(scores, np.array([0, 0])) == 1.0
        assert F.accuracy(scores, np.array([1, 1])) == 0.0


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (5, 4), elements=st.floats(-5, 5)))
@example(np.array([[1.0, 2.0, 3.0]]))
@example(np.array([[1e4, 0.0, -1e4]]))   # exp(1e4) overflows unshifted
def test_property_softmax_rows_are_distributions(logits):
    probs = softmax_rows(logits)
    assert np.isfinite(probs).all()
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(logits)),
                               atol=1e-9)
    # Shift invariance: the max subtraction makes +100 a no-op.
    np.testing.assert_allclose(softmax_rows(logits + 100.0), probs,
                               atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-5, 5)),
       st.integers(0, 2))
def test_property_cross_entropy_nonnegative(logits, target_class):
    targets = np.full(4, target_class)
    loss = F.cross_entropy(Tensor(logits), targets).item()
    assert loss >= -1e-9


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                  elements=st.floats(-5, 5)),
       st.data())
def test_property_accuracy_is_the_argmax_hit_rate(scores, data):
    targets = np.array(data.draw(st.lists(
        st.integers(0, scores.shape[1] - 1), min_size=len(scores),
        max_size=len(scores))))
    value = F.accuracy(scores, targets)
    hits = sum(int(np.argmax(row) == t) for row, t in zip(scores, targets))
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(hits / len(scores))
