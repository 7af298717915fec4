"""The FixMatch module (paper Section 3.2.3).

FixMatch combines pseudo labeling and consistency regularization: a weakly
augmented view of each unlabeled example produces a pseudo label (when the
model is confident above a threshold ``tau``), and the model is trained to
predict that label on a strongly augmented view.  Under very limited labels
this suffers from confirmation bias, so — as in the paper — the module first
fine-tunes the backbone on the SCADS-selected auxiliary data ``R`` before
running FixMatch on the target task.  That phase is the Transfer module's
Eq. 1 with the same default recipe, so both run through
:func:`~repro.modules.base.fine_tune_on_auxiliary` and one run trains it
once (see docs/performance.md, "Shared intermediate phase").

The consistency step expresses the confidence threshold as per-sample
weights over the *full* strong batch (weight zero = pseudo label rejected,
which zeroes that row's loss and gradient exactly) instead of a row
selection, so the step's tensor shapes are static and the whole two-view
update — shared model applied to both views, two losses, weighted sum —
compiles through the graph replay executor (:mod:`repro.nn.replay`) and
replays as raw NumPy kernels, bit-identical to running the same step
eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.backbone import ClassificationModel
from ..nn import functional as F
from ..nn.data import ArrayDataset, DataLoader, UnlabeledDataset
from ..nn.optim import SGD
from ..nn.replay import GraphReplay
from ..nn.schedulers import FixMatchCosineLR
from ..nn.tensor import get_default_dtype
from ..nn.training import (TrainConfig, iterate_forever, softmax_rows,
                           train_classifier)
from ..nn.transforms import strong_augment, weak_augment
from .base import (ModelTaglet, ModuleInput, Taglet, TrainingModule,
                   fine_tune_on_auxiliary)

__all__ = ["FixMatchConfig", "FixMatchModule", "consistency_step"]


@dataclass
class FixMatchConfig:
    """Hyperparameters of auxiliary pretraining + FixMatch training."""

    #: auxiliary fine-tuning phase (5 epochs in the paper)
    aux_epochs: int = 12
    aux_lr: float = 0.02
    aux_batch_size: int = 128
    #: supervised warm-up of the (fresh) target head before consistency training,
    #: which limits early confirmation bias when labels are very scarce
    head_warmup_epochs: int = 20
    head_warmup_lr: float = 0.01
    #: FixMatch phase
    epochs: int = 10
    batch_size: int = 64
    unlabeled_batch_size: int = 128
    lr: float = 0.01
    momentum: float = 0.9
    nesterov: bool = True
    #: confidence threshold tau for accepting a pseudo label
    confidence_threshold: float = 0.8
    #: weight of the unlabeled consistency loss
    unlabeled_loss_weight: float = 1.0
    use_aux_pretraining: bool = True


def consistency_step(stepper, weak_labeled, labeled_y, weak_unlabeled,
                     strong_unlabeled, cons_weight, threshold, dtype):
    """One full FixMatch consistency step through the replay executor.

    Pseudo-labels the weakly augmented unlabeled view with a compiled
    inference forward, converts the confidence threshold into per-sample
    weights, and runs the two-view update (:func:`_two_view_step`) as one
    compiled DAG step, without materializing the unread loss value.  The
    single driver shared by the training loop in :class:`FixMatchModule`
    and by the replay benchmarks/smoke checks, so what they measure is
    exactly what the pipeline executes.  Call it inside a
    ``stepper.epoch()`` scope to fingerprint the model once per epoch per
    mode rather than twice per step, and to flip ``stepper.model``'s mode
    without walking its modules.
    """
    stepper.set_training(False)
    weak_logits = stepper.forward(weak_unlabeled)
    stepper.set_training(True)
    weak_probs = softmax_rows(weak_logits)
    mask_w = (weak_probs.max(axis=1) >= threshold).astype(dtype)
    stepper.step_fn(_two_view_step, {
        "weak_x": weak_labeled,
        "labels": labeled_y,
        "strong_x": strong_unlabeled,
        "pseudo": weak_probs.argmax(axis=1),
        "mask_w": mask_w,
        "cons_w": cons_weight,
    }, compute_loss=False)


def _two_view_step(model, batch):
    """One FixMatch consistency step as a replayable step function.

    Supervised cross entropy on the weakly augmented labeled view plus the
    weighted consistency loss on the strongly augmented unlabeled view,
    where the confidence mask enters as per-sample weights (zero weight =
    pseudo label rejected).  Shapes are static across steps, so the graph
    replay executor compiles this once per batch signature and replays raw
    kernels for the rest of training (``tests/nn/test_replay_dag.py``
    asserts the replays are bit-identical to running this function
    eagerly).
    """
    sup_loss = F.cross_entropy(model(batch["weak_x"]), batch["labels"])
    strong_logits = model(batch["strong_x"])
    cons_loss = F.cross_entropy(strong_logits, batch["pseudo"],
                                sample_weights=batch["mask_w"].data)
    return sup_loss + batch["cons_w"] * cons_loss


class FixMatchModule(TrainingModule):
    """Semi-supervised consistency training, warm-started from auxiliary data."""

    name = "fixmatch"

    def __init__(self, config: Optional[FixMatchConfig] = None):
        self.config = config or FixMatchConfig()

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        config = self.config
        rng = np.random.default_rng(data.seed)
        auxiliary = data.auxiliary

        # ------------------------------------------------------------------ #
        # Phase 1: fine-tune the backbone on the selected auxiliary data.
        # ------------------------------------------------------------------ #
        if (config.use_aux_pretraining and auxiliary is not None
                and not auxiliary.is_empty()):
            model = fine_tune_on_auxiliary(
                data, rng, epochs=config.aux_epochs,
                batch_size=config.aux_batch_size, lr=config.aux_lr,
                momentum=config.momentum)
            model.replace_head(data.num_classes, rng=rng)
        else:
            model = ClassificationModel.from_backbone(
                data.backbone, num_classes=data.num_classes, rng=rng)

        # ------------------------------------------------------------------ #
        # Phase 2: supervised warm-up of the target head on the labeled shots.
        # ------------------------------------------------------------------ #
        if config.head_warmup_epochs > 0:
            warmup = TrainConfig(epochs=config.head_warmup_epochs,
                                 batch_size=config.batch_size,
                                 lr=config.head_warmup_lr, momentum=config.momentum,
                                 augment=weak_augment(), seed=data.seed)
            train_classifier(model, data.labeled_features, data.labeled_labels, warmup)

        # ------------------------------------------------------------------ #
        # Phase 3: FixMatch on labeled + unlabeled target data.
        # ------------------------------------------------------------------ #
        weak = weak_augment()
        strong = strong_augment()
        labeled_loader = DataLoader(
            ArrayDataset(data.labeled_features, data.labeled_labels),
            batch_size=min(config.batch_size, len(data.labeled_features)),
            rng=np.random.default_rng(data.seed))
        has_unlabeled = len(data.unlabeled_features) > 0
        if has_unlabeled:
            unlabeled_loader = DataLoader(
                UnlabeledDataset(data.unlabeled_features),
                batch_size=min(config.unlabeled_batch_size,
                               len(data.unlabeled_features)),
                rng=np.random.default_rng(data.seed + 1))
            unlabeled_stream = iterate_forever(unlabeled_loader)
            steps_per_epoch = max(len(unlabeled_loader), len(labeled_loader), 1)
        else:
            unlabeled_stream = None
            steps_per_epoch = max(len(labeled_loader), 1)

        optimizer = SGD(model.parameters(), lr=config.lr,
                        momentum=config.momentum, nesterov=config.nesterov)
        scheduler = FixMatchCosineLR(optimizer,
                                     total_steps=config.epochs * steps_per_epoch)

        # The two-view consistency step runs through the graph replay
        # executor: the pseudo-label view replays a compiled inference
        # forward, and the supervised + consistency update replays
        # ``_two_view_step`` as one compiled DAG (two forwards through the
        # shared model, two losses, weighted sum).  The confidence mask is a
        # per-sample *weight* on the full strong batch rather than a row
        # selection, so batch shapes — and therefore the compiled plan —
        # stay static across steps; rejected pseudo labels get weight zero,
        # which zeroes their gradient exactly.
        dtype = get_default_dtype()
        cons_weight = np.asarray(config.unlabeled_loss_weight, dtype=dtype)
        stepper = GraphReplay(model, optimizer)

        model.train()
        for _ in range(config.epochs):
            labeled_stream = iterate_forever(labeled_loader)
            # Nothing in the epoch changes the model's structure, so the
            # stepper fingerprints it once per mode, not on every call.
            with stepper.epoch():
                for _ in range(steps_per_epoch):
                    labeled_x, labeled_y = next(labeled_stream)
                    scheduler.step()
                    weak_labeled = weak(labeled_x, rng)

                    if unlabeled_stream is None:
                        stepper.step(weak_labeled, labeled_y,
                                     compute_loss=False)
                        continue

                    unlabeled_x = next(unlabeled_stream)
                    # Pseudo labels come from the weakly augmented view
                    # with no gradient flow, as in the original algorithm.
                    consistency_step(stepper, weak_labeled, labeled_y,
                                     weak(unlabeled_x, rng),
                                     strong(unlabeled_x, rng), cons_weight,
                                     config.confidence_threshold, dtype)
        model.eval()
        return ModelTaglet(self.name, model)
