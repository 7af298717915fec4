"""Pretraining of backbone encoders on auxiliary concepts.

The paper uses two pretrained backbones:

* **ResNet-50 (ImageNet-1k)** — pretrained on a *subset* of the auxiliary
  universe, representing the common case where the backbone has not seen all
  the auxiliary data SCADS can access;
* **BiT (ImageNet-21k)** — pretrained on *all* of it.

:func:`pretrain_backbone` reproduces this by supervised pretraining of an
encoder + classification head on images of a chosen set of concepts from the
synthetic visual world and then discarding the head.  The two named builders
differ only in concept coverage (and capacity), which is exactly the axis
the paper varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..kg import vocabulary
from ..kg.graph import KnowledgeGraph
from ..nn.training import TrainConfig, train_classifier
from ..synth.world import VisualWorld
from .backbone import BackboneSpec, ClassificationModel, Encoder, PretrainedBackbone

__all__ = [
    "PretrainSpec",
    "pretrain_backbone",
    "resnet50_imagenet1k",
    "bit_imagenet21k",
    "BackboneRegistry",
    "default_registry",
]


@dataclass
class PretrainSpec:
    """Workload of a backbone pretraining run."""

    images_per_concept: int = 15
    epochs: int = 6
    batch_size: int = 128
    lr: float = 0.05
    seed: int = 0


def _concept_images(world: VisualWorld, concepts: Sequence[str],
                    images_per_concept: int,
                    rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    features: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    for label, concept in enumerate(concepts):
        images = world.sample_images(concept, images_per_concept, domain="natural",
                                     rng=rng)
        features.append(images)
        labels.append(np.full(images_per_concept, label, dtype=np.int64))
    return np.concatenate(features), np.concatenate(labels)


def pretrain_backbone(world: VisualWorld, concepts: Sequence[str],
                      backbone_spec: BackboneSpec,
                      pretrain_spec: Optional[PretrainSpec] = None) -> PretrainedBackbone:
    """Supervised pretraining of an encoder on the given concepts.

    The encoder + a throwaway linear head are trained to classify the
    concepts; the head is discarded and the trunk weights become the
    pretrained backbone.
    """
    if not concepts:
        raise ValueError("cannot pretrain on an empty concept list")
    pretrain_spec = pretrain_spec or PretrainSpec()
    rng = np.random.default_rng(pretrain_spec.seed)
    features, labels = _concept_images(world, concepts,
                                       pretrain_spec.images_per_concept, rng)
    encoder = Encoder(backbone_spec, rng=rng)
    model = ClassificationModel(encoder, num_classes=len(concepts), rng=rng)
    config = TrainConfig(epochs=pretrain_spec.epochs,
                         batch_size=pretrain_spec.batch_size,
                         lr=pretrain_spec.lr, momentum=0.9,
                         scheduler="multistep",
                         milestones=(max(pretrain_spec.epochs - 2, 1),),
                         seed=pretrain_spec.seed)
    train_classifier(model, features, labels, config)
    return PretrainedBackbone(backbone_spec, encoder.state_dict(),
                              pretrained_concepts=list(concepts))


def _image_concepts(graph: KnowledgeGraph) -> List[str]:
    """Concepts that carry images in the synthetic world (leaf-ish nodes)."""
    structural = {"entity", "material", "object", "food", "organism", "place",
                  "abstraction"}
    return [c for c in graph.concepts if c not in structural]


def resnet50_imagenet1k(world: VisualWorld, graph: KnowledgeGraph,
                        coverage: float = 0.35, feature_dim: int = 32,
                        pretrain_spec: Optional[PretrainSpec] = None,
                        seed: int = 0) -> PretrainedBackbone:
    """The ResNet-50 (ImageNet-1k) analog: pretrained on a subset of concepts.

    ImageNet-1k covers generic categories but not the specialized classes of
    the paper's target tasks, so the subset deliberately excludes the exact
    target-task classes (their relatives remain eligible).  This both matches
    the paper's setting — the ResNet backbone has *not* seen the target-task
    auxiliary data — and keeps the backbone independent of which evaluation
    datasets have been instantiated.
    """
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    rng = np.random.default_rng(seed)
    excluded = set(vocabulary.FMD_CLASSES) | set(vocabulary.OFFICE_HOME_CLASSES) \
        | set(vocabulary.GROCERY_CLASSES) | set(vocabulary.GROCERY_OOV_CLASSES)
    concepts = [c for c in _image_concepts(graph) if c not in excluded]
    count = max(2, int(len(concepts) * coverage))
    chosen = sorted(rng.choice(concepts, size=count, replace=False).tolist())
    spec = BackboneSpec(name="resnet50", input_dim=world.image_dim,
                        hidden_dims=(48,), feature_dim=feature_dim,
                        pretraining="imagenet1k")
    return pretrain_backbone(world, chosen, spec, pretrain_spec)


def bit_imagenet21k(world: VisualWorld, graph: KnowledgeGraph,
                    feature_dim: int = 48,
                    pretrain_spec: Optional[PretrainSpec] = None,
                    seed: int = 0) -> PretrainedBackbone:
    """The BiT (ImageNet-21k) analog: pretrained on all auxiliary concepts."""
    concepts = _image_concepts(graph)
    spec = BackboneSpec(name="bit", input_dim=world.image_dim,
                        hidden_dims=(64,), feature_dim=feature_dim,
                        pretraining="imagenet21k")
    pretrain_spec = pretrain_spec or PretrainSpec(seed=seed)
    return pretrain_backbone(world, concepts, spec, pretrain_spec)


class BackboneRegistry:
    """Caches pretrained backbones so the experiment grid pretrains each once."""

    def __init__(self, world: VisualWorld, graph: KnowledgeGraph):
        self.world = world
        self.graph = graph
        self._cache: Dict[str, PretrainedBackbone] = {}
        # The builders close over the arguments, not ``self``: a registry
        # that its own builders referenced would be a reference cycle, and a
        # dropped workspace's backbones would wait for the cyclic GC.
        self._builders = {
            "resnet50": lambda: resnet50_imagenet1k(world, graph),
            "bit": lambda: bit_imagenet21k(world, graph),
        }

    def register(self, name: str, builder) -> None:
        """Register a custom backbone builder (any zero-argument callable)."""
        self._builders[name] = builder

    def available(self) -> List[str]:
        return sorted(self._builders)

    def get(self, name: str) -> PretrainedBackbone:
        if name not in self._builders:
            raise KeyError(f"unknown backbone {name!r}; known: {self.available()}")
        if name not in self._cache:
            self._cache[name] = self._builders[name]()
        return self._cache[name]


def default_registry(world: VisualWorld, graph: KnowledgeGraph) -> BackboneRegistry:
    """The registry with the paper's two backbones pre-registered."""
    return BackboneRegistry(world, graph)
