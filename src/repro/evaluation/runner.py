"""The experiment runner: every cell of the paper's tables is one call here.

A *method* is a named recipe mapping ``(workspace, split, backbone_name,
seed)`` to a result record.  The registry contains the paper's baselines and
TAGLETS variants (full system, pruned SCADS, leave-one-module-out), and
:class:`ExperimentRunner` sweeps methods over datasets, shot counts, splits,
backbones and seeds, producing flat records the table/figure formatters
aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..baselines import DistilledFineTuningBaseline, MetaPseudoLabelsBaseline
from ..core import Controller, ControllerConfig, Task
from ..datasets.base import TaskSplit
from ..modules import DEFAULT_MODULES, FixMatchModule, TransferModule
from ..modules.base import ModuleInput, TrainingModule
from ..scads.query import AuxiliarySelection
from ..workspace import Workspace
from .metrics import Aggregate, mean_confidence_interval

__all__ = ["ExperimentResult", "MethodSpec", "ExperimentRunner",
           "taglets_method", "baseline_method", "METHOD_REGISTRY",
           "aggregate_records"]


@dataclass
class ExperimentResult:
    """One (method, dataset, shots, split, backbone, seed) measurement."""

    method: str
    dataset: str
    shots: int
    split_seed: int
    backbone: str
    seed: int
    accuracy: float
    #: extra measurements (module accuracies, ensemble accuracy, ...)
    extras: Dict[str, float] = field(default_factory=dict)
    #: scenario-matrix provenance: ``None`` for paper-table rows, the
    #: scenario name for rows produced by :mod:`repro.scenarios` — so table
    #: and figure filters can select scenario rows structurally instead of
    #: parsing method or dataset strings
    scenario: Optional[str] = None
    #: regime family of the scenario (``scarcity``, ``corruption``, ...)
    scenario_family: Optional[str] = None
    #: the scenario's regime axes (severity, imbalance ratio, phases, ...)
    axes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        record = {
            "method": self.method, "dataset": self.dataset, "shots": self.shots,
            "split_seed": self.split_seed, "backbone": self.backbone,
            "seed": self.seed, "accuracy": self.accuracy,
        }
        if self.scenario is not None:
            record["scenario"] = self.scenario
            record["scenario_family"] = self.scenario_family
            record.update({f"axis_{k}": v for k, v in self.axes.items()})
        record.update({f"extra_{k}": v for k, v in self.extras.items()})
        return record


@dataclass
class MethodSpec:
    """A named method: a callable producing (accuracy, extras)."""

    name: str
    run: Callable[[Workspace, TaskSplit, str, int], ExperimentResult]


# --------------------------------------------------------------------------- #
# TAGLETS methods
# --------------------------------------------------------------------------- #
def taglets_method(name: str = "taglets",
                   modules: Sequence[str] = DEFAULT_MODULES,
                   prune_level: Optional[int] = None) -> MethodSpec:
    """Build a TAGLETS method spec (optionally pruned or with modules removed).

    Every run selects the paper's ``N = 5`` related concepts with ``K = 30``
    images each (the :meth:`Task.from_split` defaults) and trains in the
    float32 fast mode: the parity gate (``tests/core/test_float32_parity.py``)
    shows accuracy is dtype-invariant across every dataset/backbone of the
    benchmark grid.
    """

    def run(workspace: Workspace, split: TaskSplit, backbone_name: str,
            seed: int) -> ExperimentResult:
        backbone = workspace.backbone(backbone_name)
        task = Task.from_split(split, scads=workspace.scads, backbone=backbone)
        config = ControllerConfig(modules=modules, prune_level=prune_level,
                                  dtype="float32", seed=seed)
        controller = Controller(config=config)
        result = controller.run(task)
        test_x, test_y = split.test_features, split.test_labels
        extras: Dict[str, float] = {}
        for module_name, accuracy in result.module_accuracies(test_x, test_y).items():
            extras[f"module_{module_name}"] = accuracy
        extras["ensemble"] = result.ensemble_accuracy(test_x, test_y)
        accuracy = result.end_model_accuracy(test_x, test_y)
        extras["end_model"] = accuracy
        return ExperimentResult(method=name, dataset=split.dataset_name,
                                shots=split.shots, split_seed=split.split_seed,
                                backbone=backbone_name, seed=seed,
                                accuracy=accuracy, extras=extras)

    return MethodSpec(name=name, run=run)


# --------------------------------------------------------------------------- #
# Baseline methods
# --------------------------------------------------------------------------- #
def baseline_method(name: str,
                    build: Callable[[Workspace], TrainingModule]) -> MethodSpec:
    """Build a baseline method spec: one module trained without SCADS.

    ``build`` makes the module from the workspace; it trains on the split
    with an empty auxiliary selection, and its taglet is named ``name``.
    """

    def run(workspace: Workspace, split: TaskSplit, backbone_name: str,
            seed: int) -> ExperimentResult:
        data = ModuleInput(
            classes=split.classes, labeled_features=split.labeled_features,
            labeled_labels=split.labeled_labels,
            unlabeled_features=split.unlabeled_features,
            auxiliary=AuxiliarySelection.empty(split.labeled_features.shape[1]),
            backbone=workspace.backbone(backbone_name), seed=seed)
        taglet = build(workspace).train(data)
        taglet.name = name
        accuracy = taglet.accuracy(split.test_features, split.test_labels)
        return ExperimentResult(method=name, dataset=split.dataset_name,
                                shots=split.shots, split_seed=split.split_seed,
                                backbone=backbone_name, seed=seed,
                                accuracy=accuracy)

    return MethodSpec(name=name, run=run)


#: Methods appearing in the paper's main tables.
METHOD_REGISTRY: Dict[str, MethodSpec] = {
    # Fine-tuning is the Transfer module without its intermediate phase,
    # and the FixMatch baseline is the module without the SCADS warm start.
    "finetune": baseline_method("finetune", lambda workspace: TransferModule()),
    "finetune_distilled": baseline_method(
        "finetune_distilled", lambda workspace: DistilledFineTuningBaseline()),
    "fixmatch": baseline_method("fixmatch", lambda workspace: FixMatchModule()),
    # The student always uses the ResNet-50 analog (paper Section 4.2).
    "meta_pseudo_labels": baseline_method(
        "meta_pseudo_labels", lambda workspace: MetaPseudoLabelsBaseline(
            student_backbone=workspace.backbone("resnet50"))),
    "taglets": taglets_method("taglets"),
    "taglets_prune0": taglets_method("taglets_prune0", prune_level=0),
    "taglets_prune1": taglets_method("taglets_prune1", prune_level=1),
}

#: The row order of Tables 1-4.
TABLE_METHODS = ("finetune", "finetune_distilled", "fixmatch",
                 "meta_pseudo_labels", "taglets")
TABLE_PRUNED_METHODS = ("taglets_prune0", "taglets_prune1")


class ExperimentRunner:
    """Sweeps methods over the experimental grid and collects records."""

    def __init__(self, workspace: Workspace,
                 registry: Optional[Dict[str, MethodSpec]] = None):
        self.workspace = workspace
        self.registry = dict(registry or METHOD_REGISTRY)

    def register(self, spec: MethodSpec) -> None:
        self.registry[spec.name] = spec

    def evaluate(self, method: str, dataset: str, shots: int, split_seed: int,
                 backbone: str, seed: int) -> ExperimentResult:
        """Run one cell of the grid."""
        if method not in self.registry:
            raise KeyError(f"unknown method {method!r}; known: {sorted(self.registry)}")
        split = self.workspace.make_task_split(dataset, shots=shots,
                                               split_seed=split_seed)
        return self.registry[method].run(self.workspace, split, backbone, seed)

    def run_grid(self, methods: Sequence[str], datasets: Sequence[str],
                 shots_list: Sequence[int], backbones: Sequence[str],
                 split_seeds: Sequence[int] = (0,),
                 seeds: Sequence[int] = (0,),
                 progress: Optional[Callable[[ExperimentResult], None]] = None
                 ) -> List[ExperimentResult]:
        """Run the full cartesian grid and return all records."""
        records: List[ExperimentResult] = []
        for dataset in datasets:
            for shots in shots_list:
                for split_seed in split_seeds:
                    for backbone in backbones:
                        for method in methods:
                            for seed in seeds:
                                record = self.evaluate(method, dataset, shots,
                                                       split_seed, backbone, seed)
                                records.append(record)
                                if progress is not None:
                                    progress(record)
        return records


def aggregate_records(records: Iterable[ExperimentResult],
                      group_by: Sequence[str] = ("method", "dataset", "shots",
                                                 "backbone", "split_seed"),
                      value: str = "accuracy") -> Dict[tuple, Aggregate]:
    """Aggregate records into mean ± 95% CI keyed by the grouping fields.

    ``value`` may be ``accuracy`` or ``extra_<name>`` for any extra metric.
    Grouping fields absent from a record (e.g. ``scenario`` on paper-table
    rows) key as ``None`` rather than failing, so mixed record sets remain
    aggregable.
    """
    grouped: Dict[tuple, List[float]] = {}
    for record in records:
        data = record.as_dict()
        if value not in data:
            continue
        key = tuple(data.get(g) for g in group_by)
        grouped.setdefault(key, []).append(float(data[value]))
    return {key: mean_confidence_interval(values) for key, values in grouped.items()}
