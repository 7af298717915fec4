"""The Transfer module (paper Section 3.2.1).

Sequential fine-tuning: the pretrained backbone is first fine-tuned on the
selected auxiliary data ``R`` (the *intermediate phase*, Eq. 1) and then on
the limited labeled target data ``X`` (Eq. 2).  The intermediate phase moves
the encoder's representation toward the target task's visual neighbourhood,
which is what makes the module effective in the 1-shot and 5-shot regimes.

The intermediate phase runs through
:func:`~repro.modules.base.fine_tune_on_auxiliary`, which the FixMatch
module shares: with the default recipes the two phases are the same
computation, so one run trains Eq. 1 once and both modules start from
private copies of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel
from ..nn.training import TrainConfig, train_classifier
from ..nn.transforms import weak_augment
from .base import (ModelTaglet, ModuleInput, Taglet, TrainingModule,
                   fine_tune_on_auxiliary)

__all__ = ["TransferConfig", "TransferModule"]


@dataclass
class TransferConfig:
    """Hyperparameters of the two fine-tuning phases (Appendix A.3, scaled down)."""

    aux_epochs: int = 12
    aux_lr: float = 0.02
    aux_batch_size: int = 128
    target_epochs: int = 30
    target_lr: float = 0.01
    target_batch_size: int = 32
    momentum: float = 0.9
    use_augmentation: bool = True

    def target_train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.target_epochs, batch_size=self.target_batch_size,
                           lr=self.target_lr, momentum=self.momentum,
                           scheduler="multistep",
                           milestones=(self.target_epochs * 2 // 3,
                                       self.target_epochs * 5 // 6),
                           augment=weak_augment() if self.use_augmentation else None,
                           seed=seed)


class TransferModule(TrainingModule):
    """Fine-tune on selected auxiliary data, then on the labeled target data."""

    name = "transfer"

    def __init__(self, config: Optional[TransferConfig] = None):
        self.config = config or TransferConfig()

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        rng = np.random.default_rng(data.seed)
        auxiliary = data.auxiliary

        if auxiliary is not None and not auxiliary.is_empty():
            # Intermediate phase: fine-tune the backbone on R (Eq. 1).
            model = fine_tune_on_auxiliary(
                data, rng, epochs=self.config.aux_epochs,
                batch_size=self.config.aux_batch_size, lr=self.config.aux_lr,
                momentum=self.config.momentum,
                augment=self.config.use_augmentation)
            # Target phase: swap the head and fine-tune on X (Eq. 2).
            model.replace_head(data.num_classes, rng=rng)
        else:
            # No auxiliary data available: plain fine-tuning of the backbone.
            model = ClassificationModel.from_backbone(
                data.backbone, num_classes=data.num_classes, rng=rng)

        train_classifier(model, data.labeled_features, data.labeled_labels,
                         self.config.target_train_config(data.seed))
        return ModelTaglet(self.name, model)
