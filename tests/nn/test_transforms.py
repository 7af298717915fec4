"""Tests for data augmentations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (Compose, GaussianJitter, RandomFeatureDrop, RandomScale,
                      strong_augment, weak_augment)


class TestIndividualTransforms:
    def test_gaussian_jitter_zero_sigma_is_identity(self, rng):
        batch = np.ones((3, 4))
        np.testing.assert_allclose(GaussianJitter(0.0)(batch, rng), batch)

    def test_gaussian_jitter_preserves_shape_and_changes_values(self, rng):
        batch = np.zeros((5, 8))
        out = GaussianJitter(0.5)(batch, rng)
        assert out.shape == batch.shape
        assert not np.allclose(out, batch)

    def test_random_scale_bounds(self, rng):
        batch = np.ones((100, 2))
        out = RandomScale(0.5, 2.0)(batch, rng)
        assert (out >= 0.5 - 1e-12).all() and (out <= 2.0 + 1e-12).all()

    def test_random_feature_drop_fraction(self, rng):
        batch = np.ones((200, 50))
        out = RandomFeatureDrop(0.3)(batch, rng)
        dropped_fraction = (out == 0).mean()
        assert dropped_fraction == pytest.approx(0.3, abs=0.03)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianJitter(-1.0)
        with pytest.raises(ValueError):
            RandomScale(2.0, 1.0)
        with pytest.raises(ValueError):
            RandomFeatureDrop(1.0)


class TestComposition:
    def test_compose_applies_in_order(self, rng):
        batch = np.ones((2, 3))
        transform = Compose([RandomScale(2.0, 2.0), GaussianJitter(0.0)])
        np.testing.assert_allclose(transform(batch, rng), 2 * batch)

    def test_weak_and_strong_builders(self, rng):
        batch = np.random.default_rng(1).normal(size=(6, 10))
        weak_out = weak_augment()(batch, rng)
        strong_out = strong_augment()(batch, np.random.default_rng(0))
        assert weak_out.shape == batch.shape
        assert strong_out.shape == batch.shape
        # Strong augmentation perturbs more than weak augmentation on average.
        weak_delta = np.abs(weak_out - batch).mean()
        strong_delta = np.abs(strong_out - batch).mean()
        assert strong_delta > weak_delta

    def test_determinism_given_rng(self):
        batch = np.random.default_rng(2).normal(size=(4, 6))
        out_a = strong_augment()(batch, np.random.default_rng(7))
        out_b = strong_augment()(batch, np.random.default_rng(7))
        np.testing.assert_allclose(out_a, out_b)


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (3, 8), elements=st.floats(-10, 10)))
def test_property_transforms_preserve_shape(batch):
    rng = np.random.default_rng(0)
    for transform in [weak_augment(), strong_augment(),
                      RandomFeatureDrop(0.2)]:
        assert transform(batch, rng).shape == batch.shape
