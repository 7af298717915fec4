"""The Multi-task module (paper Section 3.2.2).

The module jointly learns the target task on ``X`` and an auxiliary
classification task on the selected auxiliary data ``R``, sharing the
encoder and optimizing ``L_joint = L_target + lambda * L_aux`` (Eq. 3–5).
The auxiliary task regularizes the shared representation, which matters most
when the target labels are scarce.

The joint step — the shared encoder applied to the target and auxiliary
batches, two fused cross entropies, their weighted sum — runs through the
graph replay executor (:mod:`repro.nn.replay`) as one compiled DAG, with
``lambda`` passed as a step input.  The auxiliary head lives in the module
the executor fingerprints, so a structural change to it forces a
recapture.  Replayed training is bit-identical to running the step eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel
from ..nn import functional as F
from ..nn.data import ArrayDataset, DataLoader
from ..nn.modules import Linear, Module
from ..nn.optim import SGD
from ..nn.replay import GraphReplay
from ..nn.schedulers import MultiStepLR
from ..nn.tensor import get_default_dtype
from ..nn.training import TrainConfig, iterate_forever, train_classifier
from ..nn.transforms import weak_augment
from .base import ModelTaglet, ModuleInput, Taglet, TrainingModule

__all__ = ["MultiTaskConfig", "MultiTaskModule"]


@dataclass
class MultiTaskConfig:
    """Hyperparameters of joint training (Appendix A.3, scaled down)."""

    epochs: int = 8
    batch_size: int = 64
    lr: float = 0.02
    momentum: float = 0.9
    #: weight of the auxiliary loss (lambda in Eq. 3)
    aux_loss_weight: float = 1.0
    #: LR decay milestones expressed as fractions of total epochs
    milestone_fractions: tuple = (0.5, 0.75)


class _JointModel(Module):
    """The target model and the auxiliary head as one module, so the replay
    executor's structural fingerprint covers both."""

    def __init__(self, model: ClassificationModel, aux_head: Linear):
        super().__init__()
        self.model = model
        self.aux_head = aux_head


def _joint_step(joint, batch):
    """``L_target + lambda * L_aux`` (Eq. 3) as a replayable step function."""
    target_loss = F.cross_entropy(joint.model(batch["target_x"]),
                                  batch["target_y"])
    aux_logits = joint.aux_head(joint.model.encoder(batch["aux_x"]))
    aux_loss = F.cross_entropy(aux_logits, batch["aux_y"])
    # ``aux_loss * lambda`` is the operand order ``lambda * aux_loss`` takes
    # through ``Tensor.__rmul__``.
    return target_loss + aux_loss * batch["aux_w"]


class MultiTaskModule(TrainingModule):
    """Jointly learn the target task and a SCADS-derived auxiliary task."""

    name = "multitask"

    def __init__(self, config: Optional[MultiTaskConfig] = None):
        self.config = config or MultiTaskConfig()

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        config = self.config
        rng = np.random.default_rng(data.seed)
        auxiliary = data.auxiliary

        model = ClassificationModel.from_backbone(data.backbone,
                                                  num_classes=data.num_classes,
                                                  rng=rng)
        if auxiliary is None or auxiliary.is_empty():
            # Without auxiliary data the module degenerates to fine-tuning.
            fallback = TrainConfig(epochs=config.epochs * 3, batch_size=config.batch_size,
                                   lr=config.lr, momentum=config.momentum,
                                   augment=weak_augment(), seed=data.seed)
            train_classifier(model, data.labeled_features, data.labeled_labels, fallback)
            return ModelTaglet(self.name, model)

        aux_head = Linear(model.encoder.feature_dim, auxiliary.num_aux_classes, rng=rng)
        augment = weak_augment()

        target_loader = DataLoader(
            ArrayDataset(data.labeled_features, data.labeled_labels),
            batch_size=min(config.batch_size, len(data.labeled_features)),
            rng=np.random.default_rng(data.seed))
        aux_loader = DataLoader(
            ArrayDataset(auxiliary.features, auxiliary.labels),
            batch_size=config.batch_size,
            rng=np.random.default_rng(data.seed + 1))
        aux_stream = iterate_forever(aux_loader)

        joint = _JointModel(model, aux_head)
        optimizer = SGD(joint.parameters(), lr=config.lr,
                        momentum=config.momentum)
        steps_per_epoch = max(len(aux_loader), len(target_loader), 1)
        total_steps = config.epochs * steps_per_epoch
        milestones = [int(total_steps * f) for f in config.milestone_fractions]
        scheduler = MultiStepLR(optimizer, milestones=milestones, gamma=0.1)
        stepper = GraphReplay(joint, optimizer)
        aux_weight = np.asarray(config.aux_loss_weight,
                                dtype=get_default_dtype())

        joint.train()
        for _ in range(config.epochs):
            target_stream = iterate_forever(target_loader)
            with stepper.epoch():
                for _ in range(steps_per_epoch):
                    target_x, target_y = next(target_stream)
                    aux_x, aux_y = next(aux_stream)
                    target_x = augment(target_x, rng)
                    aux_x = augment(aux_x, rng)
                    scheduler.step()
                    stepper.step_fn(_joint_step, {
                        "target_x": target_x, "target_y": target_y,
                        "aux_x": aux_x, "aux_y": aux_y, "aux_w": aux_weight,
                    }, compute_loss=False)
        model.eval()
        return ModelTaglet(self.name, model)
