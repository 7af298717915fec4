"""Tests for taglet ensembling (paper Eq. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ensemble import TagletEnsemble, renormalized_mean
from repro.modules.base import Taglet


class ConstantTaglet(Taglet):
    """A taglet that always returns the same probability matrix."""

    def __init__(self, name, probabilities):
        super().__init__(name)
        self._probabilities = np.asarray(probabilities, dtype=np.float64)

    def predict_proba(self, features):
        return np.tile(self._probabilities, (len(features), 1))


class TestRenormalizedMean:
    def test_average_of_members(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(renormalized_mean(np.stack([a, b])), [[0.5, 0.5]])

    def test_single_member_identity(self):
        probs = np.array([[0.2, 0.8], [0.6, 0.4]])
        np.testing.assert_allclose(renormalized_mean(probs[None]), probs)

    def test_rows_renormalized(self):
        # Degenerate all-zero rows must not produce NaNs.
        out = renormalized_mean(np.zeros((1, 2, 3)))
        assert np.isfinite(out).all()


class TestTagletEnsemble:
    def test_majority_of_confident_members_wins(self):
        good = ConstantTaglet("good", [0.9, 0.1])
        also_good = ConstantTaglet("good2", [0.8, 0.2])
        bad = ConstantTaglet("bad", [0.4, 0.6])
        ensemble = TagletEnsemble([good, also_good, bad])
        features = np.zeros((5, 2))
        assert (ensemble.predict(features) == 0).all()

    def test_member_accuracies_and_names(self):
        right = ConstantTaglet("right", [1.0, 0.0])
        wrong = ConstantTaglet("wrong", [0.0, 1.0])
        ensemble = TagletEnsemble([right, wrong])
        features, labels = np.zeros((4, 2)), np.zeros(4, dtype=int)
        accuracies = ensemble.member_accuracies(features, labels)
        assert accuracies == {"right": 1.0, "wrong": 0.0}
        assert ensemble.names == ["right", "wrong"]

    def test_accuracy_empty_features(self):
        ensemble = TagletEnsemble([ConstantTaglet("a", [0.5, 0.5])])
        assert ensemble.accuracy(np.zeros((0, 2)), np.zeros(0)) == 0.0

    def test_accuracy_refuses_labels_that_do_not_match_the_rows(self):
        # One label per row: a single label must not broadcast over rows.
        ensemble = TagletEnsemble([ConstantTaglet("a", [0.9, 0.1])])
        features = np.zeros((4, 2))
        assert ensemble.accuracy(features, np.array([0, 1, 0, 0])) == 0.75
        with pytest.raises(ValueError, match="expected 4 targets"):
            ensemble.accuracy(features, np.array([0]))

    def test_requires_members(self):
        with pytest.raises(ValueError):
            TagletEnsemble([])

    def test_member_shapes_must_agree(self):
        features = np.zeros((2, 2))
        mismatched = TagletEnsemble([ConstantTaglet("a", [0.5, 0.5]),
                                     ConstantTaglet("b", [0.2, 0.3, 0.5])])
        with pytest.raises(ValueError):
            mismatched.predict_proba(features)
        flat = ConstantTaglet("flat", [0.5, 0.5])
        flat.predict_proba = lambda features: np.full(len(features), 0.5)
        with pytest.raises(ValueError):
            TagletEnsemble([flat]).predict_proba(features)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (3, 5, 4), elements=st.floats(0.01, 1.0)))
def test_property_pseudo_labels_are_distributions(raw_votes):
    # Normalize each member's rows so the inputs are valid probability vectors.
    votes = raw_votes / raw_votes.sum(axis=2, keepdims=True)
    pseudo = renormalized_mean(votes)
    assert pseudo.shape == (5, 4)
    assert (pseudo >= 0).all()
    np.testing.assert_allclose(pseudo.sum(axis=1), np.ones(5), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (2, 4, 3), elements=st.floats(0.01, 1.0)))
def test_property_ensemble_is_permutation_invariant(raw_votes):
    votes = raw_votes / raw_votes.sum(axis=2, keepdims=True)
    forward = renormalized_mean(votes)
    reverse = renormalized_mean(votes[::-1])
    np.testing.assert_allclose(forward, reverse)
