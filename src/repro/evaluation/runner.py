"""The experiment runner: every cell of the paper's tables and of the
scenario grid is one call here.

A *method* is a named recipe mapping ``(workspace, split, backbone_name,
seed)`` to a result record.  The registry contains the paper's baselines and
TAGLETS variants (full system, pruned SCADS, leave-one-module-out).
:class:`ExperimentRunner` runs one method per cell — a paper-table cell
(:meth:`~ExperimentRunner.evaluate`) or a scenario cell
(:meth:`~ExperimentRunner.run_cell`) — timing it and counting the replay
executor's eager fallbacks, and records one flat :class:`ExperimentResult`
the table/figure formatters and the scenario gates read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..baselines import DistilledFineTuningBaseline, MetaPseudoLabelsBaseline
from ..core import Controller, ControllerConfig, Task
from ..datasets.base import TaskSplit
from ..modules import DEFAULT_MODULES, FixMatchModule, TransferModule
from ..modules.base import ModuleInput, TrainingModule
from ..nn.replay import ReplayStats, collect_replay_stats
from ..scads.query import AuxiliarySelection
from ..workspace import Workspace
from .metrics import Aggregate, mean_confidence_interval

__all__ = ["ExperimentResult", "MethodSpec", "ExperimentRunner",
           "taglets_method", "baseline_method", "METHOD_REGISTRY",
           "aggregate_records"]


@dataclass
class ExperimentResult:
    """One (method, dataset, shots, split, backbone, seed) measurement: a
    paper-table cell, or a scenario cell when ``scenario`` is set."""

    method: str
    dataset: str
    shots: int
    split_seed: int
    backbone: str
    seed: int
    accuracy: float
    #: extra measurements (module accuracies, ensemble accuracy, ...)
    extras: Dict[str, float] = field(default_factory=dict)
    #: wall-clock seconds the cell took (every stage of a multi-stage cell)
    wall_time_s: float = 0.0
    #: eager fallbacks the replay executor reported during the cell (0 on
    #: every static training loop)
    fallbacks: int = 0
    #: scenario-matrix provenance: ``None`` for paper-table rows, the
    #: scenario name for rows of :meth:`ExperimentRunner.run_cell` — so table
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


#: the final stage's extras a scenario row keeps (TAGLETS reports them)
_SCENARIO_EXTRAS = ("ensemble", "end_model")


class ExperimentRunner:
    """Runs registry methods over paper-table and scenario cells."""

    def __init__(self, workspace: Workspace,
                 registry: Optional[Dict[str, MethodSpec]] = None):
        self.workspace = workspace
        self.registry = dict(registry or METHOD_REGISTRY)

    def register(self, spec: MethodSpec) -> None:
        self.registry[spec.name] = spec

    def _run_stages(self, method: str, stages: Sequence[TaskSplit],
                    backbone: str, seed: int) -> ExperimentResult:
        """Run ``method`` once per stage; return the final stage's record.

        The record is timed over every stage and carries the fallback count
        of a replay counter private to the call (a caller that wants the
        counts too opens :func:`~repro.nn.collect_replay_stats` around it).
        A multi-stage run also records ``stage{i}_accuracy`` extras.
        """
        if method not in self.registry:
            raise KeyError(f"unknown method {method!r}; known: "
                           f"{sorted(self.registry)}")
        stats = ReplayStats()
        stage_accuracies: Dict[str, float] = {}
        started = time.perf_counter()
        with collect_replay_stats(stats):
            for index, split in enumerate(stages):
                record = self.registry[method].run(self.workspace, split,
                                                   backbone, seed)
                stage_accuracies[f"stage{index}_accuracy"] = record.accuracy
        record.wall_time_s = time.perf_counter() - started
        record.fallbacks = stats.fallback_count
        if len(stages) > 1:
            record.extras = {**stage_accuracies, **record.extras}
        return record

    def evaluate(self, method: str, dataset: str, shots: int, split_seed: int,
                 backbone: str, seed: int) -> ExperimentResult:
        """Run one paper-table cell."""
        split = self.workspace.make_task_split(dataset, shots=shots,
                                               split_seed=split_seed)
        return self._run_stages(method, [split], backbone, seed)

    def run_cell(self, spec, method: str = "taglets",
                 seed: int = 0) -> ExperimentResult:
        """Run one (scenario, method, seed) cell of the scenario grid.

        ``spec`` is a :class:`~repro.scenarios.ScenarioSpec` (anything with
        its ``build``, ``name``, ``family``, ``axes()``, ``split_seed`` and
        ``backbone``).  ``"taglets"`` runs once per built stage; any other
        method runs on the final stage (all arrivals landed).  The record is
        tagged with the scenario and keeps only the final stage's
        ``ensemble``/``end_model`` extras beside the per-stage accuracies.
        """
        stages = spec.build(self.workspace)
        if method != "taglets":
            stages = stages[-1:]
        record = self._run_stages(method, stages, spec.backbone, seed)
        record.extras = {key: value for key, value in record.extras.items()
                         if key.startswith("stage") or key in _SCENARIO_EXTRAS}
        record.split_seed = spec.split_seed
        record.scenario = spec.name
        record.scenario_family = spec.family
        record.axes = spec.axes()
        return record

    def run_grid(self, specs: Sequence,
                 methods: Sequence[str] = ("taglets", "finetune"),
                 seeds: Sequence[int] = (0,)) -> List[ExperimentResult]:
        """Run every (scenario, method, seed) cell and return all records."""
        return [self.run_cell(spec, method=method, seed=seed)
                for spec in specs for method in methods for seed in seeds]


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
