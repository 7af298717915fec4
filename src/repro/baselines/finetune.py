"""Fine-tuning and distilled fine-tuning baselines (paper Section 4.2).

*Fine-tuning* trains the pretrained backbone + a fresh head on the labeled
target examples only.  *Distilled fine-tuning* additionally pseudo-labels the
unlabeled pool with the fine-tuned model and retrains on pseudo-labeled plus
labeled data — the transfer-learning counterpart of TAGLETS' distillation
stage, and the strongest transfer baseline in the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel
from ..modules.base import ModelTaglet, Taglet
from ..nn import functional as F
from ..nn.training import (TrainConfig, predict_proba, train_classifier,
                           train_soft_classifier)
from ..nn.transforms import weak_augment
from .base import BaselineInput, BaselineMethod

__all__ = ["FineTuningConfig", "FineTuningBaseline", "DistilledFineTuningBaseline"]


@dataclass
class FineTuningConfig:
    """Fine-tuning recipe (Appendix A.3, scaled down)."""

    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    #: distillation pass over pseudo-labeled + labeled data
    distill_epochs: int = 12
    distill_lr: float = 5e-3

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           lr=self.lr, momentum=self.momentum,
                           scheduler="multistep",
                           milestones=(self.epochs * 2 // 3, self.epochs * 5 // 6),
                           augment=weak_augment(), seed=seed)

    def distill_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.distill_epochs, batch_size=128,
                           lr=self.distill_lr, optimizer="adam",
                           scheduler="multistep",
                           milestones=(self.distill_epochs * 2 // 3,),
                           augment=weak_augment(), seed=seed)


class FineTuningBaseline(BaselineMethod):
    """Fine-tune the pretrained backbone on the labeled target data."""

    name = "finetune"

    def __init__(self, config: Optional[FineTuningConfig] = None):
        self.config = config or FineTuningConfig()

    def train(self, data: BaselineInput) -> Taglet:
        data.validate()
        rng = np.random.default_rng(data.seed)
        model = ClassificationModel.from_backbone(data.backbone,
                                                  num_classes=data.num_classes,
                                                  rng=rng)
        train_classifier(model, data.labeled_features, data.labeled_labels,
                         self.config.train_config(data.seed))
        return ModelTaglet(self.name, model)


class DistilledFineTuningBaseline(BaselineMethod):
    """Fine-tune, pseudo-label the unlabeled pool, and retrain on the union."""

    name = "finetune_distilled"

    def __init__(self, config: Optional[FineTuningConfig] = None):
        self.config = config or FineTuningConfig()

    def train(self, data: BaselineInput) -> Taglet:
        data.validate()
        rng = np.random.default_rng(data.seed)
        teacher = ClassificationModel.from_backbone(data.backbone,
                                                    num_classes=data.num_classes,
                                                    rng=rng)
        train_classifier(teacher, data.labeled_features, data.labeled_labels,
                         self.config.train_config(data.seed))

        if len(data.unlabeled_features) == 0:
            return ModelTaglet(self.name, teacher)

        pseudo = predict_proba(teacher, data.unlabeled_features)
        labeled_soft = F.one_hot(data.labeled_labels, data.num_classes)
        features = np.concatenate([data.unlabeled_features, data.labeled_features])
        targets = np.concatenate([pseudo, labeled_soft])

        student = ClassificationModel.from_backbone(data.backbone,
                                                    num_classes=data.num_classes,
                                                    rng=rng)
        train_soft_classifier(student, features, targets,
                              self.config.distill_config(data.seed))
        return ModelTaglet(self.name, student)
