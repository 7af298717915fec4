"""Data augmentation for synthetic feature-grid "images".

The paper applies random resized crops and horizontal flips during training,
and FixMatch relies on a weak/strong augmentation pair.  Our synthetic
images are flat feature vectors rendered from concept prototypes, so the
augmentations here are the information-preserving analogs of those image
operations:

* :class:`RandomScale` — global brightness/contrast-like rescaling (weak).
* :class:`GaussianJitter` — additive noise, the analog of small crops (weak).
* :class:`RandomFeatureDrop` — zeroing a random subset of features, the
  analog of cutout/strong color jitter (strong).

All transforms consume and produce ``(n, d)`` NumPy batches and are
deterministic given their RNG, which keeps FixMatch's two augmented views
reproducible in tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import get_default_dtype

__all__ = [
    "Transform",
    "Compose",
    "GaussianJitter",
    "RandomScale",
    "RandomFeatureDrop",
    "weak_augment",
    "strong_augment",
]


class Transform:
    """Base class: a callable mapping an ``(n, d)`` batch to an ``(n, d)`` batch."""

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class Compose(Transform):
    """Apply transforms in sequence."""

    def __init__(self, transforms: Sequence[Transform]):
        self.transforms = list(transforms)

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.asarray(batch, dtype=get_default_dtype())
        for transform in self.transforms:
            out = transform(out, rng)
        return out


class GaussianJitter(Transform):
    """Add isotropic Gaussian noise with standard deviation ``sigma``."""

    def __init__(self, sigma: float = 0.05):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        batch = np.asarray(batch, dtype=get_default_dtype())
        if self.sigma == 0:
            return batch.copy()
        noise = rng.normal(0.0, self.sigma, size=batch.shape)
        return batch + noise.astype(batch.dtype, copy=False)


class RandomScale(Transform):
    """Multiply every example by a random scale drawn from ``[low, high]``."""

    def __init__(self, low: float = 0.9, high: float = 1.1):
        if low > high:
            raise ValueError("low must be <= high")
        self.low = low
        self.high = high

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        batch = np.asarray(batch, dtype=get_default_dtype())
        scales = rng.uniform(self.low, self.high, size=(batch.shape[0], 1))
        return batch * scales.astype(batch.dtype, copy=False)


class RandomFeatureDrop(Transform):
    """Zero out a random fraction ``p`` of features per example (cutout analog)."""

    def __init__(self, p: float = 0.2):
        if not 0.0 <= p < 1.0:
            raise ValueError("p must be in [0, 1)")
        self.p = p

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        batch = np.asarray(batch, dtype=get_default_dtype())
        if self.p == 0:
            return batch.copy()
        mask = rng.random(batch.shape) >= self.p
        return batch * mask


def weak_augment(sigma: float = 0.03, scale: float = 0.05) -> Transform:
    """The weak augmentation used on labeled data and FixMatch's pseudo-label view."""
    return Compose([RandomScale(1.0 - scale, 1.0 + scale), GaussianJitter(sigma)])


def strong_augment(sigma: float = 0.10, drop: float = 0.25) -> Transform:
    """The strong augmentation used on FixMatch's consistency-regularized view."""
    return Compose([
        RandomScale(0.85, 1.15),
        GaussianJitter(sigma),
        RandomFeatureDrop(drop),
    ])
