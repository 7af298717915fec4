"""Shared training loops used by modules, baselines, and the end model.

Every learning method in the paper boils down to one of two supervised
loops: hard-label cross entropy (fine-tuning, the Transfer and Multi-task
phases, FixMatch's supervised term) or soft-label cross entropy (the
distillation stage).  Centralizing them keeps the module implementations
focused on *what* data they train on, which is the paper's actual
contribution.  Both run their updates through the graph replay executor's
one entry point, :meth:`~repro.nn.GraphReplay.step_fn`, with a step
function: :func:`cross_entropy_step` for hard labels, a soft-target step
for distillation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .data import ArrayDataset, DataLoader, SoftLabeledDataset
from .modules import Module
from .optim import SGD, Adam, Optimizer
from .replay import GraphReplay
from .schedulers import ConstantLR, LRScheduler, MultiStepLR
from .tensor import Tensor, get_default_dtype, no_grad
from .transforms import Transform

__all__ = [
    "TrainConfig",
    "build_optimizer",
    "build_scheduler",
    "cross_entropy_step",
    "predict_logits",
    "predict_proba",
    "softmax_rows",
    "train_classifier",
    "train_soft_classifier",
    "iterate_forever",
]


@dataclass
class TrainConfig:
    """Hyperparameters of a supervised training run.

    The defaults follow the ResNet-50 recipes of Appendix A.3, scaled down to
    the synthetic workload (fewer epochs, smaller batches).  Each epoch visits
    the rows in a fresh order drawn from ``seed``.
    """

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    nesterov: bool = False
    weight_decay: float = 0.0
    optimizer: str = "sgd"              # "sgd" or "adam"
    scheduler: str = "constant"          # "constant" or "multistep"
    #: epoch indices at which the LR decays (converted to steps internally)
    milestones: Tuple[int, ...] = ()
    gamma: float = 0.1
    augment: Optional[Transform] = None
    seed: int = 0


def build_optimizer(model: Module, config: TrainConfig) -> Optimizer:
    params = model.parameters()
    if config.optimizer == "sgd":
        return SGD(params, lr=config.lr, momentum=config.momentum,
                   nesterov=config.nesterov, weight_decay=config.weight_decay)
    if config.optimizer == "adam":
        return Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    raise ValueError(f"unknown optimizer {config.optimizer!r}")


def build_scheduler(optimizer: Optimizer, config: TrainConfig,
                    steps_per_epoch: int = 1) -> LRScheduler:
    """Build the LR scheduler; epoch-based milestones are converted to steps."""
    if config.scheduler == "constant":
        return ConstantLR(optimizer)
    if config.scheduler == "multistep":
        steps_per_epoch = max(steps_per_epoch, 1)
        return MultiStepLR(optimizer,
                           milestones=[m * steps_per_epoch
                                       for m in config.milestones],
                           gamma=config.gamma)
    raise ValueError(f"unknown scheduler {config.scheduler!r}")


def predict_logits(model: Module, features: np.ndarray,
                   batch_size: Optional[int] = 256) -> np.ndarray:
    """Run the model's forward without a tape and return the raw logits.

    Runs under :func:`~repro.nn.tensor.no_grad` (the model's parameters have
    ``requires_grad=True``, so without it every eval forward would record a
    full backward tape).  ``batch_size=None`` runs the whole array as a
    single batch, which the ensemble uses for pseudo-label inference.
    """
    features = np.asarray(features, dtype=get_default_dtype())
    if batch_size is None:
        batch_size = max(len(features), 1)

    with no_grad():
        chunks: List[np.ndarray] = []
        for start in range(0, len(features), batch_size):
            batch = features[start:start + batch_size]
            logits = model(Tensor(batch))
            chunks.append(logits.data)
    if not chunks:
        return np.zeros((0, 0))
    return np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable row-wise softmax over a ``(n, C)`` logit matrix.

    The one conversion every probability-producing path goes through
    (offline :func:`predict_proba` and the serving layer's
    ``ServableModel``), so they stay bit-identical by construction.
    """
    if logits.size == 0:
        return logits
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def predict_proba(model: Module, features: np.ndarray,
                  batch_size: Optional[int] = 256) -> np.ndarray:
    """Softmax probabilities of the model on ``features``."""
    return softmax_rows(predict_logits(model, features, batch_size=batch_size))


def cross_entropy_step(model: Module, batch: Dict[str, object]) -> Tensor:
    """Hard-label cross entropy of ``model`` on ``batch["x"]`` against the
    integer labels ``batch["y"]``: the step function of every hard-label
    update."""
    return F.cross_entropy(model(batch["x"]), batch["y"])


def _soft_cross_entropy_step(model: Module,
                             batch: Dict[str, object]) -> Tensor:
    """Soft-target cross entropy against the probability rows ``batch["y"]``
    (a float input, so the step function reads its array)."""
    return F.soft_cross_entropy(model(batch["x"]), batch["y"].data)


def _train(model: Module, dataset, step, config: TrainConfig) -> Module:
    """The one supervised epoch loop behind both public trainers; ``step``
    is the replayable step function of one batch."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    loader = DataLoader(dataset, batch_size=config.batch_size, rng=rng)
    optimizer = build_optimizer(model, config)
    scheduler = build_scheduler(optimizer, config,
                                steps_per_epoch=len(loader))

    stepper = GraphReplay(model, optimizer)
    for _ in range(config.epochs):
        # The epoch scope checks the structural fingerprint once per batch
        # signature per epoch instead of once per step; nothing inside the
        # loop can mutate the model, so the amortization is sound.  Nothing
        # reads the loss, so replayed steps skip its scalar.
        with stepper.epoch():
            for batch_x, batch_y in loader:
                if config.augment is not None:
                    batch_x = config.augment(batch_x, rng)
                scheduler.step()
                stepper.step_fn(step, {"x": batch_x, "y": batch_y},
                                compute_loss=False)
    return model


def train_classifier(model: Module, features: np.ndarray, labels: np.ndarray,
                     config: TrainConfig) -> Module:
    """Train ``model`` with hard-label cross entropy (paper Eq. 1/2/4/5)."""
    return _train(model, ArrayDataset(features, labels), cross_entropy_step,
                  config)


def train_soft_classifier(model: Module, features: np.ndarray,
                          soft_labels: np.ndarray,
                          config: TrainConfig) -> Module:
    """Train ``model`` with soft-target cross entropy (paper Eq. 7)."""
    return _train(model, SoftLabeledDataset(features, soft_labels),
                  _soft_cross_entropy_step, config)


def iterate_forever(loader: DataLoader) -> Iterator:
    """Cycle a loader indefinitely (used by step-based recipes like FixMatch).

    Raises ``ValueError`` when a full pass yields no batch (an empty
    dataset), where cycling would otherwise spin forever without producing
    one.
    """
    while True:
        empty = True
        for batch in loader:
            empty = False
            yield batch
        if empty:
            raise ValueError("cannot cycle a loader that yields no batches")
