"""Ablations of TAGLETS design choices (beyond the paper's figures).

DESIGN.md calls out three design decisions worth ablating:

1. **Graph-based auxiliary selection vs. random selection** — SCADS picks
   auxiliary concepts by semantic similarity; the ablation replaces the
   selection with uniformly random concepts (same budget) and measures the
   Transfer module's accuracy.
2. **Soft vs. hard pseudo labels in the distillation stage** — Eq. 6/7 use
   soft labels; the ablation hardens them to one-hot before training the end
   model.
3. **Auxiliary budget (N × K)** — how accuracy responds to the number of
   related concepts N retrieved per class.
"""

import numpy as np

from _bench_lib import write_report
from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig, train_end_model
from repro.modules import TransferModule
from repro.modules.base import ModuleInput
from repro.scads.query import AuxiliarySelection

DATASET = "fmd"
SHOTS = 1


def _split_and_task(workspace, backbone_name, num_related=5, images_per_concept=30):
    split = workspace.make_task_split(DATASET, shots=SHOTS, split_seed=0)
    backbone = workspace.backbone(backbone_name)
    task = Task.from_split(split, scads=workspace.scads, backbone=backbone,
                           wanted_num_related_class=num_related,
                           images_per_related_class=images_per_concept)
    return split, task


def _random_selection(workspace, split, num_related, images_per_concept, seed=0):
    """Same auxiliary budget as SCADS selection, but concepts chosen uniformly."""
    rng = np.random.default_rng(seed)
    candidates = workspace.scads.scads.concepts_with_images()
    count = min(len(candidates), split.num_classes * num_related)
    chosen = rng.choice(candidates, size=count, replace=False).tolist()
    features, labels = [], []
    for label, concept in enumerate(chosen):
        images = workspace.scads.scads.get_images(concept, limit=images_per_concept,
                                                  rng=rng)
        features.append(images)
        labels.append(np.full(len(images), label))
    return AuxiliarySelection(features=np.concatenate(features),
                              labels=np.concatenate(labels).astype(np.int64),
                              concepts=chosen)


def test_ablation_selection_strategy(bench_workspace, bench_grid):
    """SCADS graph-based selection vs random auxiliary selection."""
    backbone_name = bench_grid.backbones[0]
    split, task = _split_and_task(bench_workspace, backbone_name)
    backbone = bench_workspace.backbone(backbone_name)

    def run():
        controller = Controller(modules=["transfer"], config=ControllerConfig(seed=0))
        scads_selection = controller.select_auxiliary_data(task)
        random_selection = _random_selection(bench_workspace, split, 5, 30)
        accuracies = {}
        for name, selection in [("scads_selection", scads_selection),
                                ("random_selection", random_selection)]:
            data = ModuleInput(classes=split.classes,
                               labeled_features=split.labeled_features,
                               labeled_labels=split.labeled_labels,
                               unlabeled_features=split.unlabeled_features,
                               auxiliary=selection, backbone=backbone,
                               scads=bench_workspace.scads, seed=0)
            taglet = TransferModule().train(data)
            accuracies[name] = taglet.accuracy(split.test_features, split.test_labels)
        return accuracies

    accuracies = run()
    write_report("ablation_selection_strategy",
                 "Ablation — auxiliary selection strategy (Transfer module, "
                 f"{DATASET} {SHOTS}-shot)\n"
                 + "\n".join(f"  {name:>18}: {value * 100:.2f}%"
                             for name, value in accuracies.items()))
    assert accuracies["scads_selection"] > accuracies["random_selection"]


def test_ablation_soft_vs_hard_pseudo_labels(bench_workspace, bench_grid):
    """Soft (Eq. 7) vs hardened pseudo labels in the distillation stage."""
    backbone_name = bench_grid.backbones[0]
    split, task = _split_and_task(bench_workspace, backbone_name)

    def run():
        controller = Controller(config=ControllerConfig(seed=0))
        result = controller.run(task)
        hard_end_model = train_end_model(
            backbone=task.backbone, labeled_features=task.labeled_features,
            labeled_labels=task.labeled_labels,
            pseudo_features=task.unlabeled_features,
            pseudo_probabilities=result.pseudo_labels,
            num_classes=task.num_classes,
            config=EndModelConfig(harden_pseudo_labels=True), seed=0)
        return {
            "soft_pseudo_labels": result.end_model_accuracy(split.test_features,
                                                            split.test_labels),
            "hard_pseudo_labels": hard_end_model.accuracy(split.test_features,
                                                          split.test_labels),
            "ensemble": result.ensemble_accuracy(split.test_features,
                                                 split.test_labels),
        }

    accuracies = run()
    write_report("ablation_soft_vs_hard_pseudo_labels",
                 "Ablation — distillation targets "
                 f"({DATASET} {SHOTS}-shot)\n"
                 + "\n".join(f"  {name:>20}: {value * 100:.2f}%"
                             for name, value in accuracies.items()))
    # Both variants must stay within a reasonable band of the ensemble.
    assert accuracies["soft_pseudo_labels"] > 0
    assert accuracies["hard_pseudo_labels"] > 0


def test_ablation_auxiliary_budget(bench_workspace, bench_grid):
    """Accuracy of the Transfer module as the number of related concepts N grows."""
    backbone_name = bench_grid.backbones[0]
    backbone = bench_workspace.backbone(backbone_name)
    budgets = (1, 3, 5, 10)

    def run():
        split = bench_workspace.make_task_split(DATASET, shots=SHOTS, split_seed=0)
        accuracies = {}
        for num_related in budgets:
            selection = bench_workspace.scads.select(
                split.classes, num_related_concepts=num_related,
                images_per_concept=30, rng=np.random.default_rng(0))
            data = ModuleInput(classes=split.classes,
                               labeled_features=split.labeled_features,
                               labeled_labels=split.labeled_labels,
                               unlabeled_features=split.unlabeled_features,
                               auxiliary=selection, backbone=backbone,
                               scads=bench_workspace.scads, seed=0)
            taglet = TransferModule().train(data)
            accuracies[num_related] = taglet.accuracy(split.test_features,
                                                      split.test_labels)
        return accuracies

    accuracies = run()
    write_report("ablation_auxiliary_budget",
                 "Ablation — related concepts per class (Transfer module, "
                 f"{DATASET} {SHOTS}-shot)\n"
                 + "\n".join(f"  N={n:>2}: {value * 100:.2f}%"
                             for n, value in accuracies.items()))
    assert max(accuracies.values()) >= accuracies[budgets[0]]
