"""Backbone encoders: the stand-ins for ResNet-50 and BigTransfer.

A backbone maps a synthetic image (a flat feature grid) to an embedding that
downstream classification heads operate on.  A :class:`PretrainedBackbone`
carries frozen pretrained weights plus metadata about what it was pretrained
on; every module *instantiates* its own trainable copy so that fine-tuning in
one module never leaks into another — mirroring how the original system hands
each module a fresh copy of the pretrained encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..nn.modules import Linear, Module, MLP, ReLU
from ..nn.tensor import Tensor

__all__ = ["BackboneSpec", "Encoder", "PretrainedBackbone", "ClassificationModel"]


@dataclass(frozen=True)
class BackboneSpec:
    """Architecture and provenance of a backbone."""

    name: str
    input_dim: int
    hidden_dims: tuple
    feature_dim: int
    #: description of the pretraining data ("imagenet1k" / "imagenet21k" analogs)
    pretraining: str = "none"

    def describe(self) -> str:
        return f"{self.name} (pretrained on {self.pretraining})"


class Encoder(Module):
    """The trunk network producing ``feature_dim`` embeddings."""

    def __init__(self, spec: BackboneSpec, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.spec = spec
        self.trunk = MLP(spec.input_dim, list(spec.hidden_dims), spec.feature_dim,
                         rng=rng)
        self.activation = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.trunk(x))

    @property
    def feature_dim(self) -> int:
        return self.spec.feature_dim


class PretrainedBackbone:
    """Frozen pretrained weights + metadata; a factory for trainable encoders."""

    def __init__(self, spec: BackboneSpec, state: Dict[str, np.ndarray],
                 pretrained_concepts: Sequence[str] = ()):
        self.spec = spec
        self._state = {k: v.copy() for k, v in state.items()}
        self.pretrained_concepts = list(pretrained_concepts)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def feature_dim(self) -> int:
        return self.spec.feature_dim

    @property
    def input_dim(self) -> int:
        return self.spec.input_dim

    def instantiate(self, rng: Optional[np.random.Generator] = None) -> Encoder:
        """Create a fresh trainable encoder initialized with the pretrained weights."""
        encoder = Encoder(self.spec, rng=rng)
        encoder.load_state_dict(self._state)
        return encoder

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._state.items()}


class ClassificationModel(Module):
    """Encoder + linear classification head, the unit every module fine-tunes."""

    def __init__(self, encoder: Encoder, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.encoder = encoder
        self.head = Linear(encoder.feature_dim, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.encoder(x))

    def features(self, x: Tensor) -> Tensor:
        return self.encoder(x)

    def replace_head(self, num_classes: int,
                     rng: Optional[np.random.Generator] = None) -> "ClassificationModel":
        """Swap in a fresh head (used between the auxiliary and target phases)."""
        self.head = Linear(self.encoder.feature_dim, num_classes, rng=rng)
        self.num_classes = num_classes
        return self

    def set_head_weights(self, weights: np.ndarray,
                         bias: Optional[np.ndarray] = None) -> None:
        """Set the head's weight matrix directly (used by the ZSL-KG module)."""
        weights = np.asarray(weights, dtype=self.head.weight.data.dtype)
        if weights.shape != (self.encoder.feature_dim, self.num_classes):
            raise ValueError(
                f"expected weights of shape ({self.encoder.feature_dim}, "
                f"{self.num_classes}), got {weights.shape}")
        self.head.weight.data = weights.copy()
        if bias is not None:
            if self.head.bias is None:
                raise ValueError("head has no bias parameter")
            self.head.bias.data = np.asarray(
                bias, dtype=self.head.bias.data.dtype).copy()

    @classmethod
    def from_backbone(cls, backbone: PretrainedBackbone, num_classes: int,
                      rng: Optional[np.random.Generator] = None) -> "ClassificationModel":
        return cls(backbone.instantiate(rng=rng), num_classes, rng=rng)
