"""The ZSL-KG module (paper Section 3.2.4).

Zero-shot learning from the knowledge graph: a graph neural network maps a
concept node (and its neighbourhood) to a class weight vector in the
backbone's feature space, so predictions for the target classes require no
labeled target examples at all.

Following the paper's recipe (Appendix A.3), the graph neural network is
pretrained by regressing, for concepts with available auxiliary images, onto
the classifier weights of a pretrained classifier — here the feature-space
prototypes of each concept under the frozen backbone, which are the weights
of the corresponding prototype classifier (Eq. 9).  At task time the trained
network produces a weight vector for every target class, those vectors are
plugged in as the classification head, and the frozen backbone does the rest.

Because the module never sees labeled target data, its accuracy is invariant
to the number of shots — visible as the flat ZSL-KG line in Figure 5.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..backbones.backbone import ClassificationModel, PretrainedBackbone
from ..kg.graph import KnowledgeGraph
from ..nn import functional as F
from ..nn.chain import LeafChain, leaf_chain
from ..nn.modules import Linear, Module, ReLU
from ..nn.ops import SQERR, Frame
from ..nn.optim import Adam
from ..nn.replay import GraphReplay
from ..nn.tensor import Tensor, get_default_dtype
from ..nn.training import predict_logits, softmax_rows
from ..scads.builder import ScadsBundle
from ..scads.query import target_class_vector
from .base import ModuleInput, Taglet, TrainingModule

__all__ = ["ZslKgConfig", "GraphClassEncoder", "ZslKgModule", "ZslKgTaglet"]


@dataclass
class ZslKgConfig:
    """Hyperparameters of the graph class encoder and its pretraining."""

    hidden_dim: int = 128
    pretrain_epochs: int = 800
    pretrain_lr: float = 1e-2
    weight_decay: float = 0.0
    #: number of concepts used for pretraining (sampled from those with images)
    max_training_concepts: int = 2500
    #: images per concept used to build prototype regression targets
    images_per_prototype: int = 10
    #: softmax temperature of the resulting zero-shot classifier
    logit_scale: float = 4.0
    #: held-out fraction of training concepts used for checkpoint selection
    validation_fraction: float = 0.1


class GraphClassEncoder(Module):
    """A two-layer graph neural network producing class weight vectors.

    Each node is described by its own SCADS embedding concatenated with the
    mean embedding of its graph neighbourhood (single-hop aggregation); two
    dense layers map that description to a vector in backbone feature space.
    """

    def __init__(self, embedding_dim: int, hidden_dim: int, output_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.fc1 = Linear(2 * embedding_dim, hidden_dim, rng=rng)
        self.activation = ReLU()
        self.fc2 = Linear(hidden_dim, output_dim, rng=rng)
        self.embedding_dim = embedding_dim
        self.output_dim = output_dim

    def forward(self, node_descriptions: Tensor) -> Tensor:
        return self.fc2(self.activation(self.fc1(node_descriptions)))


#: concepts per frozen-backbone forward when building prototype targets: one
#: ten-row forward per concept is bound by per-call overhead, while one
#: forward over every concept would hold all their images and activations
#: at once and raise peak memory
_PROTOTYPE_CHUNK = 64


def _l2_step(encoder: Module, batch) -> Tensor:
    """The pretrain's regression loss (Eq. 9) as a replayable step function:
    squared error of the encoded descriptions against the float targets."""
    return F.l2_loss(encoder(batch["x"]), batch["y"].data)


def _validation_loss(chain: LeafChain, x: np.ndarray, y: np.ndarray) -> float:
    """``l2_loss(encoder(x), y)`` under ``no_grad``: the compiled forward,
    then the squared-error table op on a fresh frame."""
    frame = Frame()
    frame.x, frame.t, frame.denom = chain(x), y, float(len(x))
    SQERR.forward(frame)
    return float(frame.out)


def _prototype_targets(scads, encoder: Module, concepts: Sequence[str],
                       images_per_prototype: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Unit-norm feature-space prototype of each concept (the Eq. 9 targets).

    Images are drawn concept by concept, so ``rng`` advances exactly as it
    would for one draw per concept; the frozen ``encoder`` then runs once per
    chunk of ``_PROTOTYPE_CHUNK`` concepts, holding one chunk's images at a
    time.
    """
    prototypes = []
    for start in range(0, len(concepts), _PROTOTYPE_CHUNK):
        groups = [scads.get_images(concept, limit=images_per_prototype,
                                   rng=rng)
                  for concept in concepts[start:start + _PROTOTYPE_CHUNK]]
        features = predict_logits(encoder, np.concatenate(groups),
                                  batch_size=None)
        offset = 0
        for images in groups:
            prototype = features[offset:offset + len(images)].mean(axis=0)
            offset += len(images)
            norm = np.linalg.norm(prototype)
            prototypes.append(prototype / norm if norm > 0 else prototype)
    return np.stack(prototypes)


class ZslKgTaglet(Taglet):
    """Zero-shot classifier: frozen backbone features scored against class vectors."""

    def __init__(self, name: str, model: ClassificationModel, logit_scale: float):
        super().__init__(name)
        self.model = model
        self.logit_scale = logit_scale

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = 256) -> np.ndarray:
        return softmax_rows(predict_logits(self.model, features,
                                           batch_size=batch_size)
                            * self.logit_scale)


class ZslKgModule(TrainingModule):
    """Zero-shot taglet driven by the knowledge graph in SCADS."""

    name = "zsl_kg"

    #: pretrained class encoders keyed by (backbone id, graph id, engine
    #: dtype, config, seed, excluded concepts); each entry is
    #: ``(backbone, graph, state)`` — holding the objects keeps their ids
    #: from being recycled while it lives
    _pretrained_cache: Dict[tuple, Tuple[PretrainedBackbone, KnowledgeGraph,
                                         Dict[str, np.ndarray]]] = {}

    def __init__(self, config: Optional[ZslKgConfig] = None):
        self.config = config or ZslKgConfig()

    # ------------------------------------------------------------------ #
    # Node descriptions
    # ------------------------------------------------------------------ #
    def _node_description(self, bundle: ScadsBundle, concept_or_vector) -> np.ndarray:
        """Own embedding concatenated with the neighbourhood mean embedding."""
        embedding = bundle.embedding
        if isinstance(concept_or_vector, str):
            own = embedding.get_vector(concept_or_vector)
            try:
                neighbors = [embedding.get_vector(n, allow_approximation=False)
                             for n, _, _ in bundle.scads.graph.neighbors(concept_or_vector)]
            except KeyError:
                neighbors = []
        else:
            own = np.asarray(concept_or_vector, dtype=np.float64)
            neighbors = []
        neighborhood = np.mean(neighbors, axis=0) if neighbors else own
        return np.concatenate([own, neighborhood])

    # ------------------------------------------------------------------ #
    # Pretraining on auxiliary concepts (Eq. 9)
    # ------------------------------------------------------------------ #
    def _pretrain(self, bundle: ScadsBundle, backbone: PretrainedBackbone,
                  seed: int) -> Dict[str, np.ndarray]:
        config = self.config
        graph = bundle.scads.graph
        # The engine dtype is part of the key, so float32-mode weights never
        # leak into a float64 run (or vice versa); so is the config, so a
        # short pretrain never answers for a long one; so is the seed,
        # which draws the concept sample, prototypes, split and init; and so
        # is the bundle's exclusion set, since a pruned view shares the
        # graph but pretrains on fewer concepts.
        cache_key = (id(backbone), id(graph),
                     np.dtype(get_default_dtype()).name, astuple(config), seed,
                     frozenset(bundle.scads.excluded_concepts))
        entry = self._pretrained_cache.get(cache_key)
        if entry is not None:
            return entry[2]

        rng = np.random.default_rng(seed)
        encoder = backbone.instantiate(rng=rng)

        concepts = bundle.scads.concepts_with_images()
        if len(concepts) > config.max_training_concepts:
            concepts = sorted(rng.choice(concepts, size=config.max_training_concepts,
                                         replace=False).tolist())
        descriptions = np.stack([self._node_description(bundle, c) for c in concepts])
        targets = _prototype_targets(bundle.scads, encoder, concepts,
                                     config.images_per_prototype, rng)

        n_validation = max(1, int(len(concepts) * config.validation_fraction))
        permutation = rng.permutation(len(concepts))
        val_idx, train_idx = permutation[:n_validation], permutation[n_validation:]

        class_encoder = GraphClassEncoder(bundle.embedding.dim, config.hidden_dim,
                                          backbone.feature_dim, rng=rng)
        optimizer = Adam(class_encoder.parameters(), lr=config.pretrain_lr,
                         weight_decay=config.weight_decay)
        best_state = class_encoder.state_dict()
        # Improvements are copied into these buffers, allocated once.
        checkpoint = [(best_state[name], param)
                      for name, param in class_encoder.named_parameters()]
        best_val = float("inf")
        # The pretrain loop is the engine's most static workload: the same
        # full-batch step repeated ``pretrain_epochs`` times.  The graph
        # replay executor captures the training step once and replays raw
        # NumPy kernels for the remaining epochs — bit-identical to the
        # eager loop, with the training-loss scalar elided since nothing
        # consumes it.  The validation pass runs the compiled leaf chain.
        # Inputs are cast to the engine dtype up front so every replayed
        # step hits the zero-copy fast path.  Nothing in the loop changes
        # the encoder's structure, so the whole pretrain runs in one epoch
        # scope: the encoder is fingerprinted once.  The loop reads only
        # the casts, so the float64 originals are released before it.
        dtype = get_default_dtype()
        train_x = descriptions[train_idx].astype(dtype)
        train_y = targets[train_idx].astype(dtype)
        val_x = descriptions[val_idx].astype(dtype)
        val_y = targets[val_idx].astype(dtype)
        del descriptions, targets
        stepper = GraphReplay(class_encoder, optimizer)
        chain = leaf_chain(class_encoder, val_x.shape[1], dtype)
        with stepper.epoch():
            for _ in range(config.pretrain_epochs):
                stepper.step_fn(_l2_step, {"x": train_x, "y": train_y},
                                compute_loss=False)
                val_loss = _validation_loss(chain, val_x, val_y)
                if val_loss < best_val:
                    best_val = val_loss
                    for saved, param in checkpoint:
                        np.copyto(saved, param.data)

        self._pretrained_cache[cache_key] = (backbone, graph, best_state)
        return best_state

    # ------------------------------------------------------------------ #
    # Taglet construction
    # ------------------------------------------------------------------ #
    def train(self, data: ModuleInput) -> Taglet:
        if data.scads is None:
            raise ValueError("the ZSL-KG module requires a SCADS bundle")
        config = self.config
        rng = np.random.default_rng(data.seed)
        bundle = data.scads
        state = self._pretrain(bundle, data.backbone, seed=data.seed)

        class_encoder = GraphClassEncoder(bundle.embedding.dim, config.hidden_dim,
                                          data.backbone.feature_dim, rng=rng)
        class_encoder.load_state_dict(state)

        descriptions = []
        for spec in data.classes:
            concept = spec.concept or spec.name
            try:
                description = self._node_description(bundle, concept)
            except KeyError:
                vector = target_class_vector(spec, bundle.scads, bundle.embedding)
                if vector is None:
                    vector = np.zeros(bundle.embedding.dim)
                description = self._node_description(bundle, vector)
            descriptions.append(description)
        class_vectors = predict_logits(class_encoder, np.stack(descriptions),
                                       batch_size=None)

        model = ClassificationModel.from_backbone(data.backbone,
                                                  num_classes=data.num_classes,
                                                  rng=rng)
        model.set_head_weights(class_vectors.T,
                               bias=np.zeros(data.num_classes))
        return ZslKgTaglet(self.name, model, logit_scale=config.logit_scale)
