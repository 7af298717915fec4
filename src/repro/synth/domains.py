"""Visual domains of the synthetic image world, plus test-time corruptions.

The paper's tasks span several visual domains: natural photographs (FMD,
Grocery Store), catalogue-style product images without background
(OfficeHome-Product) and clipart illustrations (OfficeHome-Clipart).  Domain
shift is what makes the Clipart task harder and what the modules must be
robust to.

Each :class:`DomainShift` maps a clean prototype-space image to its
domain-specific appearance.  The product domain is a mild affine change; the
clipart domain applies a fixed random mixing matrix — a much stronger,
feature-entangling shift — which reproduces the ordering
``Product accuracy > Clipart accuracy`` seen throughout the paper's tables.

:class:`Corruption` extends the same interface with *severity-graded*
perturbations (Gaussian noise, feature occlusion, feature mixing) used by the
scenario matrix (:mod:`repro.scenarios`) to stress models with degraded
inputs, in the spirit of common-corruption robustness benchmarks.  Severity
runs 0..5 where 0 is the identity; a corruption instance is bit-deterministic
(same instance + same batch → identical output arrays), and its distortion
grows monotonically with severity.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["DomainShift", "NaturalDomain", "ProductDomain", "ClipartDomain",
           "SmartphoneDomain", "build_domain", "DOMAIN_NAMES",
           "Corruption", "GaussianNoiseCorruption", "OcclusionCorruption",
           "MixingCorruption", "build_corruption", "CORRUPTION_NAMES",
           "MAX_SEVERITY"]


class DomainShift:
    """Base class: a deterministic transformation of prototype-space images."""

    name = "base"

    def apply(self, images: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 2:
            raise ValueError("expected an (n, d) batch of images")
        return self.apply(images)


class NaturalDomain(DomainShift):
    """Natural photographs: the identity domain."""

    name = "natural"

    def apply(self, images: np.ndarray) -> np.ndarray:
        return images.copy()


class ProductDomain(DomainShift):
    """Catalogue product shots: uniform background, consistent lighting.

    Implemented as a mild global gain plus a fixed bias ("white background"),
    which keeps class geometry mostly intact — the easy transfer target.
    """

    name = "product"

    def __init__(self, dim: int, seed: int = 0, gain: float = 1.05,
                 bias_scale: float = 0.3):
        rng = np.random.default_rng(seed)
        self.gain = gain
        self.bias = rng.normal(0.0, bias_scale, size=dim)

    def apply(self, images: np.ndarray) -> np.ndarray:
        return self.gain * images + self.bias


class ClipartDomain(DomainShift):
    """Clipart illustrations: flat colours and stylized shapes.

    Implemented as a fixed random rotation-like mixing of features blended
    with the original image, plus a bias.  This entangles features and is the
    strongest shift, making the Clipart task the hardest — matching the paper.
    """

    name = "clipart"

    def __init__(self, dim: int, seed: int = 1, mixing_strength: float = 0.55,
                 bias_scale: float = 0.4):
        rng = np.random.default_rng(seed)
        random_matrix = rng.normal(0.0, 1.0, size=(dim, dim))
        # Orthonormalize so the shift rotates rather than collapses features.
        q, _ = np.linalg.qr(random_matrix)
        self.mixing = (1.0 - mixing_strength) * np.eye(dim) + mixing_strength * q
        self.bias = rng.normal(0.0, bias_scale, size=dim)

    def apply(self, images: np.ndarray) -> np.ndarray:
        return images @ self.mixing.T + self.bias


class SmartphoneDomain(DomainShift):
    """Handheld smartphone photos (Grocery Store): slight blur and exposure jitter.

    Implemented as local feature smoothing (moving average along the feature
    grid) plus a mild gain, a weaker shift than clipart.
    """

    name = "smartphone"

    def __init__(self, dim: int, seed: int = 2, window: int = 2, gain: float = 0.97):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.gain = gain
        rng = np.random.default_rng(seed)
        self.bias = rng.normal(0.0, 0.05, size=dim)

    def apply(self, images: np.ndarray) -> np.ndarray:
        if self.window == 1:
            smoothed = images
        else:
            kernel = np.ones(self.window) / self.window
            smoothed = np.apply_along_axis(
                lambda row: np.convolve(row, kernel, mode="same"), 1, images)
        return self.gain * smoothed + self.bias


DOMAIN_NAMES = ("natural", "product", "clipart", "smartphone")


def build_domain(name: str, dim: int, seed: int = 0) -> DomainShift:
    """Factory for domain shifts by name."""
    name = name.lower()
    if name == "natural":
        return NaturalDomain()
    if name == "product":
        return ProductDomain(dim, seed=seed)
    if name == "clipart":
        return ClipartDomain(dim, seed=seed)
    if name == "smartphone":
        return SmartphoneDomain(dim, seed=seed)
    raise ValueError(f"unknown domain {name!r}; expected one of {DOMAIN_NAMES}")


# --------------------------------------------------------------------------- #
# Severity-graded corruptions
# --------------------------------------------------------------------------- #

#: Highest supported corruption severity (0 = clean, identity).
MAX_SEVERITY = 5


class Corruption(DomainShift):
    """A severity-graded perturbation of already-rendered images.

    Unlike a :class:`DomainShift` — which models how a *domain* renders a
    concept — a corruption degrades an image at test (or pool) time.  The
    contract every subclass must keep, asserted by
    ``tests/synth/test_corruptions.py``:

    * **bit-determinism** — calling the same instance on the same batch twice
      yields identical arrays; randomness comes from a generator re-seeded
      from ``(kind, seed)`` on every call, never from ambient state;
    * **shape/dtype preservation** — output is a fresh float64 array of the
      input's ``(n, d)`` shape (the engine-wide feature dtype);
    * **monotone distortion** — the perturbation magnitude never decreases
      with severity, and severity 0 is exactly the identity.
    """

    kind = "corruption"

    def __init__(self, dim: int, severity: int, seed: int = 0):
        severity = int(severity)
        if not 0 <= severity <= MAX_SEVERITY:
            raise ValueError(
                f"severity must be in 0..{MAX_SEVERITY}, got {severity}")
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.severity = severity
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        # Severity is deliberately NOT part of the stream seed: severities
        # share the underlying random draws and differ only in magnitude,
        # which makes the distortion exactly monotone in severity.
        return np.random.default_rng([zlib.crc32(self.kind.encode()), self.seed])

    def __call__(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 2:
            raise ValueError("expected an (n, d) batch of images")
        if images.shape[1] != self.dim:
            raise ValueError(
                f"corruption built for dim {self.dim}, got images of dim "
                f"{images.shape[1]}")
        if self.severity == 0:
            return images.copy()
        return self.apply(images)


class GaussianNoiseCorruption(Corruption):
    """Additive white noise: sensor grain, low light, compression artefacts."""

    kind = "gaussian_noise"
    #: noise standard deviation per severity level 0..5
    SIGMA = (0.0, 0.3, 0.6, 0.9, 1.35, 2.0)

    def apply(self, images: np.ndarray) -> np.ndarray:
        noise = self._rng().normal(0.0, 1.0, size=images.shape)
        return images + self.SIGMA[self.severity] * noise


class OcclusionCorruption(Corruption):
    """A contiguous block of features is blanked out (object partly hidden).

    Each image loses one contiguous span of the feature grid; the span's
    anchor position is drawn per image from the corruption's seed, and its
    width grows with severity.
    """

    kind = "occlusion"
    #: fraction of the feature grid occluded per severity level 0..5
    FRACTION = (0.0, 0.12, 0.24, 0.38, 0.52, 0.68)

    def apply(self, images: np.ndarray) -> np.ndarray:
        width = max(1, int(round(self.dim * self.FRACTION[self.severity])))
        width = min(width, self.dim)
        # Anchors are a severity-independent draw: the same image keeps the
        # same occlusion locus while the span widens with severity.
        anchors = self._rng().uniform(0.0, 1.0, size=len(images))
        starts = np.floor(anchors * (self.dim - width + 1)).astype(np.int64)
        columns = starts[:, None] + np.arange(width)[None, :]
        out = images.copy()
        np.put_along_axis(out, columns, 0.0, axis=1)
        return out


class MixingCorruption(Corruption):
    """Features blend through a fixed random rotation (style corruption).

    The same mechanism as :class:`ClipartDomain` but severity-graded and with
    its own mixing matrix, so a model trained on any domain sees a *novel*
    entanglement of its features.
    """

    kind = "mixing"
    #: blend strength toward the random rotation per severity level 0..5
    STRENGTH = (0.0, 0.15, 0.3, 0.45, 0.62, 0.8)

    def __init__(self, dim: int, severity: int, seed: int = 0):
        super().__init__(dim, severity, seed)
        q, _ = np.linalg.qr(self._rng().normal(0.0, 1.0, size=(dim, dim)))
        self._rotation = q

    def apply(self, images: np.ndarray) -> np.ndarray:
        strength = self.STRENGTH[self.severity]
        mixed = images @ self._rotation.T
        return (1.0 - strength) * images + strength * mixed


CORRUPTION_NAMES = ("gaussian_noise", "occlusion", "mixing")

_CORRUPTION_FACTORIES = {
    "gaussian_noise": GaussianNoiseCorruption,
    "occlusion": OcclusionCorruption,
    "mixing": MixingCorruption,
}


def build_corruption(kind: str, dim: int, severity: int,
                     seed: int = 0) -> Corruption:
    """Factory for severity-graded corruptions by kind name."""
    kind = kind.lower()
    if kind not in _CORRUPTION_FACTORIES:
        raise ValueError(
            f"unknown corruption {kind!r}; expected one of {CORRUPTION_NAMES}")
    return _CORRUPTION_FACTORIES[kind](dim, severity, seed=seed)
