"""``repro.baselines`` — the comparison methods of the paper's evaluation.

Two baselines are TAGLETS modules on an empty auxiliary selection: plain
fine-tuning is :class:`~repro.modules.TransferModule` without its
intermediate phase, and the FixMatch baseline is
:class:`~repro.modules.FixMatchModule` without the SCADS warm start; the
experiment runner builds both from :data:`~repro.evaluation.METHOD_REGISTRY`.
This package holds the two that are not modules: distilled fine-tuning
(transfer learning) and Meta Pseudo Labels (semi-supervised learning).  Both
are :class:`~repro.modules.base.TrainingModule` subclasses that ignore the
auxiliary selection.  The paper's self-supervised comparison degraded on
these small datasets and appears in no result table (Section 4.2), so it is
not implemented here.
"""

from .finetune import DistilledFineTuningBaseline, FineTuningConfig
from .meta_pseudo_labels import MetaPseudoLabelsBaseline, MetaPseudoLabelsConfig

__all__ = [
    "DistilledFineTuningBaseline", "FineTuningConfig",
    "MetaPseudoLabelsBaseline", "MetaPseudoLabelsConfig",
]
