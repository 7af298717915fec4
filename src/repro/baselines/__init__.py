"""``repro.baselines`` — the comparison methods of the paper's evaluation.

Fine-tuning and distilled fine-tuning (transfer learning), and FixMatch and
Meta Pseudo Labels (semi-supervised learning): the baseline rows of the
paper's result tables.  The paper's self-supervised comparison degraded on
these small datasets and appears in no result table (Section 4.2), so it
is not implemented here.
"""

from .base import BaselineInput, BaselineMethod
from .finetune import (DistilledFineTuningBaseline, FineTuningBaseline,
                       FineTuningConfig)
from .fixmatch import FixMatchBaseline
from .meta_pseudo_labels import MetaPseudoLabelsBaseline, MetaPseudoLabelsConfig

__all__ = [
    "BaselineInput", "BaselineMethod",
    "FineTuningBaseline", "DistilledFineTuningBaseline", "FineTuningConfig",
    "FixMatchBaseline",
    "MetaPseudoLabelsBaseline", "MetaPseudoLabelsConfig",
]
