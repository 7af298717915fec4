"""Extending TAGLETS with a custom training module.

The module framework is deliberately open-ended (Section 3.2: "This modular
framework is extensible, as other methods can be incorporated on top of the
ones we develop here").  This example adds a *prototype module*: it embeds
the selected auxiliary images and the labeled shots with the frozen backbone
and classifies by nearest class prototype — no gradient training at all.

The custom module is then ensembled with the built-in modules through the
standard :class:`~repro.core.Controller`.

Run with::

    python examples/custom_module.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Controller, Task
from repro.modules import DEFAULT_MODULES
from repro.modules.base import ModuleInput, Taglet, TrainingModule
from repro.nn import Tensor
from repro.workspace import build_workspace


class PrototypeTaglet(Taglet):
    """Nearest-prototype classifier in the frozen backbone's feature space."""

    def __init__(self, name: str, encoder, prototypes: np.ndarray,
                 temperature: float = 5.0):
        super().__init__(name)
        self.encoder = encoder
        self.prototypes = prototypes
        self.temperature = temperature

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        embedded = self.encoder(Tensor(np.asarray(features, dtype=np.float64))).data
        embedded = embedded / np.maximum(np.linalg.norm(embedded, axis=1,
                                                        keepdims=True), 1e-12)
        logits = self.temperature * (embedded @ self.prototypes.T)
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)


class PrototypeModule(TrainingModule):
    """Build one prototype per target class from labeled shots + auxiliary data."""

    name = "prototype"

    def train(self, data: ModuleInput) -> Taglet:
        data.validate()
        encoder = data.backbone.instantiate()

        def embed(batch: np.ndarray) -> np.ndarray:
            out = encoder(Tensor(np.asarray(batch, dtype=np.float64))).data
            return out / np.maximum(np.linalg.norm(out, axis=1, keepdims=True), 1e-12)

        prototypes = np.zeros((data.num_classes, data.backbone.feature_dim))
        labeled_embedded = embed(data.labeled_features)
        for class_index, spec in enumerate(data.classes):
            members = [labeled_embedded[data.labeled_labels == class_index]]
            # Auxiliary images selected for this class refine the prototype.
            if data.auxiliary is not None and not data.auxiliary.is_empty():
                related = data.auxiliary.per_target_concepts.get(spec.name, [])
                for concept in related:
                    if concept in data.auxiliary.concepts:
                        aux_label = data.auxiliary.concepts.index(concept)
                        mask = data.auxiliary.labels == aux_label
                        members.append(embed(data.auxiliary.features[mask]))
            stacked = np.concatenate([m for m in members if len(m)], axis=0)
            prototype = stacked.mean(axis=0)
            prototypes[class_index] = prototype / max(np.linalg.norm(prototype), 1e-12)
        return PrototypeTaglet(self.name, encoder, prototypes)


def main() -> None:
    workspace = build_workspace(scale="small", seed=0)
    split = workspace.make_task_split("fmd", shots=1, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"))

    controller = Controller(modules=[*DEFAULT_MODULES, PrototypeModule()])
    result = controller.run(task)

    test_x, test_y = split.test_features, split.test_labels
    print("--- 1-shot FMD with an extra custom module in the ensemble ---")
    for name, accuracy in result.module_accuracies(test_x, test_y).items():
        marker = "  <- custom" if name == "prototype" else ""
        print(f"  module {name:>10}: {accuracy * 100:5.1f}%{marker}")
    print(f"  ensemble         : {result.ensemble_accuracy(test_x, test_y) * 100:5.1f}%")
    print(f"  end model        : {result.end_model_accuracy(test_x, test_y) * 100:5.1f}%")


if __name__ == "__main__":
    main()
