"""The distillation stage: training the servable end model (paper Section 3.3).

The taglet ensemble pseudo-labels the unlabeled target data; the end model is
then a single backbone + head fine-tuned on the union of pseudo-labeled and
labeled data with the soft cross-entropy loss of Eq. 7.  Only this model is
served in production, which is why its size is that of one backbone rather
than the whole ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel, PretrainedBackbone
from ..modules.base import ModelTaglet
from ..nn import functional as F
from ..nn.tensor import get_default_dtype
from ..nn.training import TrainConfig, train_soft_classifier
from ..nn.transforms import weak_augment

__all__ = ["EndModelConfig", "EndModel", "train_end_model"]


@dataclass
class EndModelConfig:
    """End-model training recipe (Appendix A.3, scaled down)."""

    epochs: int = 25
    batch_size: int = 128
    lr: float = 3e-3
    optimizer: str = "adam"
    weight_decay: float = 1e-4
    #: if True the pseudo labels are hardened to one-hot before training
    #: (an ablation of the soft-label design choice; the paper uses soft labels)
    harden_pseudo_labels: bool = False


class EndModel(ModelTaglet):
    """The servable distilled classifier.

    This is the artifact the whole pipeline exists to produce; the
    deployment layer (:mod:`repro.serve`) exports it — via the properties
    below — as a versioned on-disk artifact and serves it behind the
    micro-batching engine.
    """

    def __init__(self, model: ClassificationModel):
        super().__init__("end_model", model)

    def num_parameters(self) -> int:
        return self.model.num_parameters()

    @property
    def backbone_spec(self):
        """Architecture/provenance of the underlying encoder (exported to
        the servable manifest so the model can be rebuilt without code)."""
        return self.model.encoder.spec

    @property
    def dtype(self) -> np.dtype:
        """The dtype the end model was trained under."""
        return self.model.head.weight.data.dtype

    def state_dict(self):
        """The weights a servable artifact persists."""
        return self.model.state_dict()


def train_end_model(backbone: PretrainedBackbone,
                    labeled_features: np.ndarray, labeled_labels: np.ndarray,
                    pseudo_features: np.ndarray, pseudo_probabilities: np.ndarray,
                    num_classes: int,
                    config: Optional[EndModelConfig] = None,
                    seed: int = 0) -> EndModel:
    """Distill the ensemble's knowledge into a single servable model.

    ``pseudo_features`` / ``pseudo_probabilities`` are the unlabeled examples
    and their soft pseudo labels from the taglet ensemble; labeled examples
    are included with one-hot targets, so the loss is exactly Eq. 7 over
    ``P ∪ X``.
    """
    config = config or EndModelConfig()
    labeled_features = np.asarray(labeled_features, dtype=get_default_dtype())
    labeled_labels = np.asarray(labeled_labels, dtype=np.int64)
    pseudo_features = np.asarray(pseudo_features, dtype=get_default_dtype())
    pseudo_probabilities = np.asarray(pseudo_probabilities, dtype=get_default_dtype())

    if len(labeled_features) == 0:
        raise ValueError("the end model requires labeled data")
    if len(pseudo_features) != len(pseudo_probabilities):
        raise ValueError("pseudo features/probabilities length mismatch")

    if config.harden_pseudo_labels and len(pseudo_probabilities):
        hard = pseudo_probabilities.argmax(axis=1)
        pseudo_probabilities = F.one_hot(hard, num_classes)

    labeled_soft = F.one_hot(labeled_labels, num_classes)
    if len(pseudo_features):
        features = np.concatenate([pseudo_features, labeled_features])
        soft_targets = np.concatenate([pseudo_probabilities, labeled_soft])
    else:
        features, soft_targets = labeled_features, labeled_soft

    rng = np.random.default_rng(seed)
    model = ClassificationModel.from_backbone(backbone, num_classes=num_classes,
                                              rng=rng)
    train_config = TrainConfig(
        epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
        optimizer=config.optimizer, weight_decay=config.weight_decay,
        scheduler="multistep", milestones=(config.epochs * 2 // 3,),
        augment=weak_augment(), seed=seed)
    train_soft_classifier(model, features, soft_targets, train_config)
    return EndModel(model)
