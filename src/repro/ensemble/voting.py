"""Unsupervised ensembling of taglets (paper Section 3.3).

Each taglet returns a probability vector per example; the vectors are stacked
into a vote matrix ``V`` of shape ``(|T|, C)`` and averaged into the soft
pseudo label ``p_x = 1/|T| * sum_t V_t`` (Eq. 6).  The ensemble is also a
classifier in its own right, which the paper analyses separately from the
distilled end model (Figure 6).
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..modules.base import Taglet
from ..nn import functional as F

__all__ = ["renormalized_mean", "TagletEnsemble"]


def renormalized_mean(votes: np.ndarray) -> np.ndarray:
    """Average a ``(|T|, n, C)`` vote tensor and renormalize rows to sum to one.

    The single vote-fusing computation of the system (Eq. 6): offline
    pseudo-labeling (:class:`TagletEnsemble`) and the serving tier's fused
    ensemble inference (:class:`repro.serve.ServableEnsemble`) both call it,
    which is what keeps served votes bit-identical to offline voting.
    """
    pseudo = votes.mean(axis=0)
    row_sums = pseudo.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    return pseudo / row_sums


def _member_proba(taglet: Taglet, features: np.ndarray,
                  batch_size) -> np.ndarray:
    """Call a member's ``predict_proba``, tolerating legacy signatures.

    Custom taglets written against the original ``predict_proba(features)``
    interface keep working; built-in taglets get the batched inference path.
    The signature is inspected rather than caught: a ``TypeError`` raised
    *inside* a member must propagate, not trigger a silent retry.
    """
    parameters = inspect.signature(taglet.predict_proba).parameters
    if "batch_size" in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return taglet.predict_proba(features, batch_size=batch_size)
    return taglet.predict_proba(features)


class TagletEnsemble:
    """A collection of taglets acting as a single (non-servable) classifier."""

    def __init__(self, taglets: Sequence[Taglet]):
        if not taglets:
            raise ValueError("an ensemble needs at least one taglet")
        self.taglets = list(taglets)

    @property
    def names(self) -> List[str]:
        return [t.name for t in self.taglets]

    def predict_proba(self, features: np.ndarray,
                      batch_size: Optional[int] = 256) -> np.ndarray:
        """Soft pseudo labels over ``features`` (Eq. 6), batched per member.

        Each member scores the whole array in one inference pass into a
        preallocated ``(|T|, n, C)`` vote tensor — no per-chunk Python loop,
        no re-stacking — and the average is renormalized row-wise.
        ``batch_size=None`` disables member-level chunking entirely.
        """
        first = np.asarray(_member_proba(self.taglets[0], features, batch_size))
        if first.ndim != 2:
            raise ValueError("each taglet prediction must be an (n, C) matrix")
        votes = np.empty((len(self.taglets),) + first.shape, dtype=np.float64)
        votes[0] = first
        for i, taglet in enumerate(self.taglets[1:], start=1):
            member = np.asarray(_member_proba(taglet, features, batch_size))
            if member.shape != first.shape:
                raise ValueError("taglet predictions disagree on shape")
            votes[i] = member
        return renormalized_mean(votes)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.predict_proba(features).argmax(axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        if len(features) == 0:
            return 0.0
        return F.accuracy(self.predict_proba(features), labels)

    def member_accuracies(self, features: np.ndarray,
                          labels: np.ndarray) -> Dict[str, float]:
        """Accuracy of each member taglet (the per-module numbers of Figure 5)."""
        return {t.name: t.accuracy(features, labels) for t in self.taglets}
