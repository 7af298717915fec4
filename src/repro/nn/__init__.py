"""``repro.nn`` — the NumPy neural-network substrate of the TAGLETS reproduction.

This package stands in for PyTorch in the original system: a reverse-mode
autograd engine (:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.modules`),
losses (:mod:`repro.nn.functional`), optimizers and schedulers, a data
pipeline, augmentations, and shared training loops.
"""

from . import functional
from .data import (ArrayDataset, DataLoader, Dataset, SoftLabeledDataset,
                   UnlabeledDataset, train_test_indices)
from .modules import (MLP, BatchNorm1d, Dropout, Identity, Linear, Module,
                      Parameter, ReLU, Sequential, Tanh)
from .optim import SGD, Adam, Optimizer
from .replay import (GraphReplay, ReplayStats, ReplayUnsupported,
                     collect_replay_stats)
from .schedulers import (ConstantLR, CosineAnnealingLR, FixMatchCosineLR,
                         LRScheduler, MultiStepLR)
from .serialization import (StateDictMismatchError, load_into_module,
                            load_state_dict, save_module, save_state_dict,
                            state_dict_digest, state_dict_manifest,
                            validate_state_dict)
from .tensor import (Tensor, default_dtype, get_default_dtype,
                     graph_replay_enabled, is_grad_enabled, no_grad,
                     set_default_dtype, use_graph_replay)
from .training import (TrainConfig, build_optimizer, build_scheduler,
                       evaluate_accuracy, iterate_forever, predict_logits,
                       predict_proba, softmax_rows, train_classifier,
                       train_soft_classifier)
from .transforms import (Compose, GaussianJitter, IdentityTransform,
                         RandomFeatureDrop, RandomPermuteBlocks, RandomScale,
                         Transform, strong_augment, weak_augment)

__all__ = [
    "Tensor", "functional",
    "no_grad", "is_grad_enabled", "default_dtype", "get_default_dtype",
    "set_default_dtype", "use_graph_replay", "graph_replay_enabled",
    "GraphReplay", "ReplayStats", "ReplayUnsupported", "collect_replay_stats",
    "Module", "Parameter", "Linear", "ReLU", "Tanh", "Identity", "Dropout",
    "BatchNorm1d", "Sequential", "MLP",
    "Optimizer", "SGD", "Adam",
    "LRScheduler", "ConstantLR", "MultiStepLR", "CosineAnnealingLR",
    "FixMatchCosineLR",
    "Dataset", "ArrayDataset", "UnlabeledDataset", "SoftLabeledDataset",
    "DataLoader", "train_test_indices",
    "Transform", "Compose", "IdentityTransform", "GaussianJitter",
    "RandomScale", "RandomFeatureDrop", "RandomPermuteBlocks",
    "weak_augment", "strong_augment",
    "TrainConfig", "build_optimizer", "build_scheduler", "predict_logits",
    "predict_proba", "softmax_rows", "evaluate_accuracy", "train_classifier",
    "train_soft_classifier", "iterate_forever",
    "save_state_dict", "load_state_dict", "save_module", "load_into_module",
    "state_dict_manifest", "state_dict_digest", "validate_state_dict",
    "StateDictMismatchError",
]
