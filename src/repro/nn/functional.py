"""The losses of the TAGLETS reproduction, each one op-table node.

They are the hard cross entropy of the transfer / multi-task modules
(paper Eq. 1-5), the confidence-thresholded consistency loss of FixMatch,
and the soft cross entropy used by the distillation stage (paper Eq. 7).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import ops
from .ops import check_label_range
from .tensor import Tensor, apply, get_default_dtype

__all__ = [
    "one_hot",
    "check_label_range",
    "cross_entropy",
    "soft_cross_entropy",
    "l2_loss",
    "accuracy",
]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(len(labels), num_classes)`` one-hot float matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    check_label_range(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, targets: Union[np.ndarray, list],
                  sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Cross entropy between ``logits`` and integer class ``targets``.

    Matches the per-example average used in the paper's Eq. 1, 2, 4, 5.
    One tape node (the table's fused softmax + cross entropy) whose
    backward is the closed form ``(softmax(z) - onehot(y)) / n``.
    """
    return apply(ops.HARD_CE, (logits,), t=targets, w=sample_weights)


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray,
                       sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Soft-target cross entropy (paper Eq. 7, the distillation loss).

    ``target_probs`` is an ``(n, C)`` matrix of probability vectors, e.g. the
    soft pseudo labels produced by the taglet ensemble.  One tape node with
    the closed-form backward ``(softmax(z) * rowsum(t) - t) / n``.
    """
    target_probs = np.asarray(target_probs)
    if target_probs.shape != logits.shape:
        raise ValueError("target_probs shape must match logits shape: "
                         f"{target_probs.shape} vs {logits.shape}")
    return apply(ops.SOFT_CE, (logits,), t=target_probs, w=sample_weights)


def l2_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared L2 distance between rows (paper Eq. 9, ZSL-KG pretraining).

    ``sum((p - t)^2) / rows`` as one tape node, with the closed-form
    backward ``2 (p - t) / rows``.
    """
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    if targets.requires_grad:
        raise ValueError("squared-error targets must be constants, got a "
                         "tensor that requires grad")
    if targets.shape != predictions.shape:
        raise ValueError(f"squared-error targets of shape {targets.shape} do "
                         f"not match predictions of shape {predictions.shape}")
    # mean over all leading dims of the per-row sums == total / (size / C)
    rows = max(predictions.size // predictions.shape[-1], 1)
    return apply(ops.SQERR, (predictions,), t=targets.data, denom=float(rows))


def accuracy(logits_or_probs: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy of a score matrix against integer targets."""
    scores = np.asarray(logits_or_probs)
    targets = np.asarray(targets)
    if scores.ndim != 2:
        raise ValueError("expected a 2-D score matrix")
    if targets.shape != (len(scores),):
        raise ValueError(f"expected {len(scores)} targets, got shape "
                         f"{targets.shape}")
    if len(targets) == 0:
        return 0.0
    predictions = scores.argmax(axis=1)
    return float((predictions == targets).mean())
