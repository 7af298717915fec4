"""Quickstart: build a servable classifier from 5 labels per class.

This mirrors the paper's artifact demo: a small target task with very little
labeled data, a pool of unlabeled data, and a SCADS full of auxiliary data.
TAGLETS trains its four modules, ensembles them into pseudo labels, distills
a single end model, and (as in the demo) should clearly beat plain
fine-tuning of the same backbone.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.core import Controller, Task
from repro.modules import TransferModule
from repro.modules.base import ModuleInput
from repro.scads.query import AuxiliarySelection
from repro.workspace import build_workspace


def main() -> None:
    start = time.time()
    print("Building the workspace (knowledge graph, visual world, SCADS, backbones)...")
    workspace = build_workspace(scale="small", seed=0)

    # A 5-shot split of the FMD material-recognition task.
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    print(f"Task: {split.dataset_name} with {split.num_classes} classes, "
          f"{len(split.labeled_features)} labeled / "
          f"{len(split.unlabeled_features)} unlabeled images")

    backbone = workspace.backbone("resnet50")
    task = Task.from_split(split, scads=workspace.scads, backbone=backbone)

    print("Running TAGLETS (modules -> ensemble -> distilled end model)...")
    controller = Controller()
    result = controller.run(task)

    # Plain fine-tuning is the Transfer module with no auxiliary data.
    print("Running the fine-tuning baseline for comparison...")
    baseline = TransferModule().train(ModuleInput(
        classes=split.classes, labeled_features=split.labeled_features,
        labeled_labels=split.labeled_labels,
        unlabeled_features=split.unlabeled_features,
        auxiliary=AuxiliarySelection.empty(split.labeled_features.shape[1]),
        backbone=backbone, seed=0))

    test_x, test_y = split.test_features, split.test_labels
    print("\n--- results (top-1 accuracy on the held-out test set) ---")
    for name, accuracy in result.module_accuracies(test_x, test_y).items():
        print(f"  module {name:>10}: {accuracy * 100:5.1f}%")
    print(f"  taglet ensemble : {result.ensemble_accuracy(test_x, test_y) * 100:5.1f}%")
    print(f"  TAGLETS end model: {result.end_model_accuracy(test_x, test_y) * 100:5.1f}%")
    print(f"  fine-tuning      : {baseline.accuracy(test_x, test_y) * 100:5.1f}%")
    print(f"\nDone in {time.time() - start:.1f}s. The end model is a single "
          f"{result.end_model.num_parameters():,}-parameter classifier ready to serve.")


if __name__ == "__main__":
    main()
