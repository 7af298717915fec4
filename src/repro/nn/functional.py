"""Differentiable functional operations built on :class:`repro.nn.Tensor`.

These are the loss functions and activations used throughout the TAGLETS
reproduction: the hard cross entropy of the transfer / multi-task modules
(paper Eq. 1-5), the confidence-thresholded consistency loss of FixMatch,
and the soft cross entropy used by the distillation stage (paper Eq. 7).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import ops
from .ops import check_label_range
from .tensor import (_TRACE_RECORDS, Tensor, apply, fused_ops_enabled,
                     get_default_dtype)

__all__ = [
    "one_hot",
    "check_label_range",
    "softmax",
    "log_softmax",
    "linear",
    "cross_entropy",
    "softmax_cross_entropy",
    "soft_cross_entropy",
    "mse_loss",
    "l2_loss",
    "nll_loss",
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


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine transform ``y = x W + b`` (the table's Linear op).

    One tape node whose backward computes all three gradients directly
    (``g W^T``, ``x^T g``, ``g.sum(0)``) instead of the two-node
    ``(x @ W) + b`` graph.
    """
    if not fused_ops_enabled() or x.ndim != 2:
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out
    return apply(ops.LINEAR, (x,), (weight, bias))


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def nll_loss(log_probs: Tensor, targets: np.ndarray,
             sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood of integer targets given log-probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    n, c = log_probs.shape
    target_matrix = one_hot(targets, c)
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        target_matrix = target_matrix * sample_weights[:, None]
        denom = float(sample_weights.sum()) or 1.0
    else:
        denom = float(n)
    picked = (log_probs * Tensor(target_matrix)).sum()
    return -picked * (1.0 / denom)


def softmax_cross_entropy(logits: Tensor, targets: Union[np.ndarray, list],
                          sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Fused softmax + cross entropy with a single hand-written backward.

    Numerically identical to ``nll_loss(log_softmax(logits), targets)`` but
    builds one graph node instead of ~10, and its backward is the closed form
    ``(softmax(z) - onehot(y)) / n`` instead of a chain of primitive closures
    each allocating intermediates.
    """
    return _fused_loss("cross_entropy", logits, targets, sample_weights,
                       w=sample_weights)


def cross_entropy(logits: Tensor, targets: Union[np.ndarray, list],
                  sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Cross entropy between ``logits`` and integer class ``targets``.

    Matches the per-example average used in the paper's Eq. 1, 2, 4, 5.
    Dispatches to the fused kernel unless fused ops are disabled (the
    primitive-composed path is kept as the reference for gradient tests and
    seed-equivalent benchmarking).
    """
    if fused_ops_enabled():
        return softmax_cross_entropy(logits, targets,
                                     sample_weights=sample_weights)
    return nll_loss(log_softmax(logits), targets, sample_weights=sample_weights)


def soft_cross_entropy(logits: Tensor, target_probs: np.ndarray,
                       sample_weights: Optional[np.ndarray] = None) -> Tensor:
    """Soft-target cross entropy (paper Eq. 7, the distillation loss).

    ``target_probs`` is an ``(n, C)`` matrix of probability vectors, e.g. the
    soft pseudo labels produced by the taglet ensemble.  Uses a fused forward
    and the closed-form backward ``(softmax(z) * rowsum(t) - t) / n`` unless
    fused ops are disabled.
    """
    target_probs = np.asarray(target_probs)
    if target_probs.shape != logits.shape:
        raise ValueError("target_probs shape must match logits shape: "
                         f"{target_probs.shape} vs {logits.shape}")
    if not fused_ops_enabled():
        target_probs = np.asarray(target_probs, dtype=np.float64)
        log_probs = log_softmax(logits)
        if sample_weights is not None:
            sample_weights = np.asarray(sample_weights, dtype=np.float64)
            target_probs = target_probs * sample_weights[:, None]
            denom = float(sample_weights.sum()) or 1.0
        else:
            denom = float(logits.shape[0])
        return -(log_probs * Tensor(target_probs)).sum() * (1.0 / denom)

    return _fused_loss("soft_cross_entropy", logits, target_probs,
                       sample_weights, w=sample_weights)


def _fused_loss(kind: str, logits: Tensor, targets, extra, **attrs) -> Tensor:
    """Apply the fused loss ``kind`` (:data:`repro.nn.ops.LOSSES`) and
    record it for the replay compiler as
    ``("loss", kind, logits, targets, extra, out)``."""
    out = apply(ops.LOSSES[kind], (logits,), t=targets, **attrs)
    records = _TRACE_RECORDS.get()
    if records is not None:
        records.append(("loss", kind, logits, targets, extra, out))
    return out


def _fused_squared_error(predictions: Tensor, target_data: np.ndarray,
                         denom: float) -> Tensor:
    """``sum((p - t)^2) / denom`` as one tape node, with the closed-form
    backward ``2 (p - t) / denom``."""
    return _fused_loss("sqerr", predictions, target_data, denom, denom=denom)


def mse_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error over all elements."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    if (fused_ops_enabled() and not targets.requires_grad
            and targets.shape == predictions.shape):
        return _fused_squared_error(predictions, targets.data,
                                    float(predictions.size))
    diff = predictions - targets
    return (diff * diff).mean()


def l2_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared L2 distance between rows (paper Eq. 9, ZSL-KG pretraining)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(targets)
    if (fused_ops_enabled() and not targets.requires_grad
            and targets.shape == predictions.shape):
        # mean over all leading dims of the per-row sums == total / (size / C)
        rows = max(predictions.size // predictions.shape[-1], 1)
        return _fused_squared_error(predictions, targets.data, float(rows))
    diff = predictions - targets
    return (diff * diff).sum(axis=-1).mean()


def accuracy(logits_or_probs: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy of a score matrix against integer targets."""
    scores = np.asarray(logits_or_probs)
    targets = np.asarray(targets)
    if scores.ndim != 2:
        raise ValueError("expected a 2-D score matrix")
    if len(targets) == 0:
        return 0.0
    predictions = scores.argmax(axis=1)
    return float((predictions == targets).mean())
