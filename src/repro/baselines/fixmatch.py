"""The FixMatch baseline (paper Section 4.2).

Identical algorithm to the FixMatch *module* of TAGLETS, but — as in the
paper's comparison — without the SCADS auxiliary-data warm start: the model
starts directly from the pretrained backbone and learns from the labeled and
unlabeled target data alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..datasets.base import ClassSpec
from ..modules.base import ModuleInput, Taglet
from ..modules.fixmatch import FixMatchConfig, FixMatchModule
from ..scads.query import AuxiliarySelection
from .base import BaselineInput, BaselineMethod

__all__ = ["FixMatchBaseline"]


class FixMatchBaseline(BaselineMethod):
    """FixMatch semi-supervised learning from a pretrained encoder.

    Like the module, the baseline's two-view consistency step runs through
    the graph replay executor, which the ambient ``use_graph_replay`` scope
    switches.
    """

    name = "fixmatch_baseline"

    def __init__(self, config: Optional[FixMatchConfig] = None):
        # The baseline never uses auxiliary data, whatever the config says;
        # it works on a copy so a config shared with a FixMatchModule keeps
        # its auxiliary phase.
        config = replace(config or FixMatchConfig(), use_aux_pretraining=False)
        self._module = FixMatchModule(config)

    def train(self, data: BaselineInput) -> Taglet:
        data.validate()
        empty_aux = AuxiliarySelection(
            features=np.zeros((0, data.labeled_features.shape[1])),
            labels=np.zeros(0, dtype=np.int64), concepts=[])
        classes = [ClassSpec(name=f"class_{i}", concept=f"class_{i}")
                   for i in range(data.num_classes)]
        module_input = ModuleInput(classes=classes,
                                   labeled_features=data.labeled_features,
                                   labeled_labels=data.labeled_labels,
                                   unlabeled_features=data.unlabeled_features,
                                   auxiliary=empty_aux,
                                   backbone=data.backbone,
                                   scads=None,
                                   seed=data.seed)
        taglet = self._module.train(module_input)
        taglet.name = self.name
        return taglet
