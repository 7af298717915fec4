"""The distilled fine-tuning baseline (paper Section 4.2).

The fine-tuned teacher is the Transfer module's target phase on the labeled
examples alone (plain *fine-tuning*, which the runner takes from
:class:`~repro.modules.TransferModule` on an empty selection).  *Distilled
fine-tuning* then pseudo-labels the unlabeled pool with it and retrains on
pseudo-labeled plus labeled data — the transfer-learning counterpart of
TAGLETS' distillation stage, and the strongest transfer baseline in the
paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel
from ..modules.base import ModelTaglet, ModuleInput, Taglet, TrainingModule
from ..modules.transfer import TransferConfig
from ..nn import functional as F
from ..nn.training import (TrainConfig, predict_proba, train_classifier,
                           train_soft_classifier)
from ..nn.transforms import weak_augment

__all__ = ["FineTuningConfig", "DistilledFineTuningBaseline"]


@dataclass
class FineTuningConfig:
    """Distillation pass over pseudo-labeled + labeled data (Appendix A.3,
    scaled down); the teacher trains with the Transfer module's target
    recipe."""

    distill_epochs: int = 12
    distill_lr: float = 5e-3

    def distill_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.distill_epochs, batch_size=128,
                           lr=self.distill_lr, optimizer="adam",
                           scheduler="multistep",
                           milestones=(self.distill_epochs * 2 // 3,),
                           augment=weak_augment(), seed=seed)


class DistilledFineTuningBaseline(TrainingModule):
    """Fine-tune, pseudo-label the unlabeled pool, and retrain on the union.

    Ignores ``data.auxiliary``.
    """

    name = "finetune_distilled"

    def __init__(self, config: Optional[FineTuningConfig] = None):
        self.config = config or FineTuningConfig()

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        rng = np.random.default_rng(data.seed)
        teacher = ClassificationModel.from_backbone(data.backbone,
                                                    num_classes=data.num_classes,
                                                    rng=rng)
        train_classifier(teacher, data.labeled_features, data.labeled_labels,
                         TransferConfig().target_train_config(data.seed))

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
