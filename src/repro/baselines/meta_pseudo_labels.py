"""The Meta Pseudo Labels baseline (Pham et al., 2021; paper Section 4.2).

A teacher network pseudo-labels unlabeled data for a student network; the
student's performance on labeled data is fed back to adapt the teacher.  We
implement the standard first-order approximation of the meta-gradient:

1. the student takes a gradient step on the teacher's (hard) pseudo labels
   for an unlabeled batch;
2. the improvement ``h`` of the student's labeled-data loss caused by that
   step scores how useful the teacher's pseudo labels were;
3. the teacher takes a gradient step on ``h * CE(teacher(u), pseudo) +
   CE(teacher(x), y)``;
4. after teacher-student training the student is fine-tuned on the labeled
   data to reduce confirmation bias, as in the paper's Appendix A.3.

As in the paper, the teacher may use either backbone while the student always
uses the ResNet-50 analog (here: the same backbone passed in, since the
runner gives the student backbone explicitly via ``student_backbone``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel, PretrainedBackbone
from ..modules.base import ModelTaglet, ModuleInput, Taglet, TrainingModule
from ..nn import functional as F
from ..nn.data import ArrayDataset, DataLoader, UnlabeledDataset
from ..nn.optim import SGD
from ..nn.schedulers import CosineAnnealingLR
from ..nn.tensor import Tensor, no_grad
from ..nn.training import TrainConfig, iterate_forever, train_classifier
from ..nn.transforms import weak_augment

__all__ = ["MetaPseudoLabelsConfig", "MetaPseudoLabelsBaseline"]


@dataclass
class MetaPseudoLabelsConfig:
    """Hyperparameters of teacher-student training (Appendix A.3, scaled down)."""

    steps: int = 300
    batch_size: int = 64
    unlabeled_batch_size: int = 64
    teacher_lr: float = 1e-2
    student_lr: float = 2e-2
    momentum: float = 0.9
    #: final supervised fine-tuning of the student
    finetune_epochs: int = 30
    finetune_lr: float = 1e-2


class MetaPseudoLabelsBaseline(TrainingModule):
    """Teacher-student pseudo labeling with student-feedback to the teacher.

    Ignores ``data.auxiliary``.
    """

    name = "meta_pseudo_labels"

    def __init__(self, config: Optional[MetaPseudoLabelsConfig] = None,
                 student_backbone: Optional[PretrainedBackbone] = None):
        self.config = config or MetaPseudoLabelsConfig()
        #: backbone for the student; defaults to the input backbone (the paper
        #: always uses the ResNet-50 analog for the student)
        self.student_backbone = student_backbone

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        config = self.config
        rng = np.random.default_rng(data.seed)
        augment = weak_augment()

        student_backbone = self.student_backbone or data.backbone
        teacher = ClassificationModel.from_backbone(data.backbone,
                                                    num_classes=data.num_classes,
                                                    rng=rng)
        student = ClassificationModel.from_backbone(student_backbone,
                                                    num_classes=data.num_classes,
                                                    rng=rng)

        if len(data.unlabeled_features) == 0:
            # Degenerates to fine-tuning the student on labeled data.
            finetune = TrainConfig(epochs=config.finetune_epochs,
                                   batch_size=config.batch_size,
                                   lr=config.finetune_lr, momentum=config.momentum,
                                   augment=augment, seed=data.seed)
            train_classifier(student, data.labeled_features, data.labeled_labels,
                             finetune)
            return ModelTaglet(self.name, student)

        labeled_loader = DataLoader(
            ArrayDataset(data.labeled_features, data.labeled_labels),
            batch_size=min(config.batch_size, len(data.labeled_features)),
            rng=np.random.default_rng(data.seed))
        unlabeled_loader = DataLoader(
            UnlabeledDataset(data.unlabeled_features),
            batch_size=min(config.unlabeled_batch_size, len(data.unlabeled_features)),
            rng=np.random.default_rng(data.seed + 1))
        labeled_stream = iterate_forever(labeled_loader)
        unlabeled_stream = iterate_forever(unlabeled_loader)

        teacher_optimizer = SGD(teacher.parameters(), lr=config.teacher_lr,
                                momentum=config.momentum)
        student_optimizer = SGD(student.parameters(), lr=config.student_lr,
                                momentum=config.momentum)
        teacher_scheduler = CosineAnnealingLR(teacher_optimizer, config.steps)
        student_scheduler = CosineAnnealingLR(student_optimizer, config.steps)

        for _ in range(config.steps):
            labeled_x, labeled_y = next(labeled_stream)
            unlabeled_x = next(unlabeled_stream)
            labeled_x = augment(labeled_x, rng)
            unlabeled_x = augment(unlabeled_x, rng)
            teacher_scheduler.step()
            student_scheduler.step()

            # Three forwards only read values, so they record no tape.
            with no_grad():
                # Teacher pseudo-labels the unlabeled batch.
                pseudo_labels = teacher(Tensor(unlabeled_x)).data.argmax(axis=1)
                # Student loss on labeled data before its update.
                loss_before = F.cross_entropy(student(Tensor(labeled_x)),
                                              labeled_y).item()

            # Student step on the pseudo-labeled batch.
            student_logits = student(Tensor(unlabeled_x))
            student_loss = F.cross_entropy(student_logits, pseudo_labels)
            student_optimizer.zero_grad()
            student_loss.backward()
            student_optimizer.step()

            # Student loss on labeled data after the update: the feedback signal.
            with no_grad():
                loss_after = F.cross_entropy(student(Tensor(labeled_x)),
                                             labeled_y).item()
            feedback = loss_before - loss_after

            # Teacher step: feedback-weighted pseudo-label loss + supervised loss.
            teacher_logits_u = teacher(Tensor(unlabeled_x))
            teacher_logits_l = teacher(Tensor(labeled_x))
            teacher_loss = (feedback * F.cross_entropy(teacher_logits_u, pseudo_labels)
                            + F.cross_entropy(teacher_logits_l, labeled_y))
            teacher_optimizer.zero_grad()
            teacher_loss.backward()
            teacher_optimizer.step()

        # Final supervised fine-tuning of the student.
        finetune = TrainConfig(epochs=config.finetune_epochs,
                               batch_size=config.batch_size,
                               lr=config.finetune_lr, momentum=config.momentum,
                               augment=augment, seed=data.seed)
        train_classifier(student, data.labeled_features, data.labeled_labels, finetune)
        return ModelTaglet(self.name, student)
