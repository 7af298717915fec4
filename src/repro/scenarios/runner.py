"""Executing scenario cells: TAGLETS and baselines over built scenarios.

:class:`ScenarioRunner` runs one
:data:`~repro.evaluation.runner.METHOD_REGISTRY` method over one built
scenario and records a :class:`ScenarioResult` row: final-stage accuracy,
wall time, and the replay executor's eager-fallback count, which the
zero-fallback regression suite pins to 0 for every scenario-grid loop.

Multi-stage scenarios (incremental arrivals, streaming pools) retrain from
scratch per stage, exactly like the paper's controller would be re-run as new
data lands; per-stage accuracies are recorded in ``extras`` and the *final*
stage is what the gates see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..evaluation.runner import METHOD_REGISTRY, ExperimentResult
from ..nn.replay import ReplayStats, collect_replay_stats
from ..workspace import Workspace
from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "ScenarioRunner", "experiment_records"]

#: the final stage's record extras a row keeps (TAGLETS reports them)
_ROW_EXTRAS = ("ensemble", "end_model")


@dataclass
class ScenarioResult:
    """One (scenario, method, seed) measurement of the robustness grid."""

    scenario: str
    family: str
    method: str
    dataset: str
    shots: int
    backbone: str
    seed: int
    accuracy: float
    wall_time_s: float
    #: eager fallbacks reported by the replay executor (must be 0 — every
    #: scenario loop is a static graph)
    fallbacks: int = 0
    axes: Dict[str, object] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    def as_experiment_result(self) -> ExperimentResult:
        """The row as a scenario-tagged :class:`ExperimentResult` record."""
        return ExperimentResult(
            method=self.method, dataset=self.dataset, shots=self.shots,
            split_seed=0, backbone=self.backbone, seed=self.seed,
            accuracy=self.accuracy, extras=dict(self.extras),
            scenario=self.scenario, scenario_family=self.family,
            axes=dict(self.axes))

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario, "family": self.family,
            "method": self.method, "dataset": self.dataset,
            "shots": self.shots, "backbone": self.backbone, "seed": self.seed,
            "accuracy": self.accuracy, "wall_time_s": self.wall_time_s,
            "fallbacks": self.fallbacks, "axes": dict(self.axes),
            "extras": dict(self.extras),
        }


class ScenarioRunner:
    """Sweeps methods over scenario cells against one shared workspace."""

    def __init__(self, workspace: Workspace):
        self.workspace = workspace

    # ------------------------------------------------------------------ #
    # Single cells
    # ------------------------------------------------------------------ #
    def run_cell(self, spec: ScenarioSpec, method: str = "taglets",
                 seed: int = 0) -> ScenarioResult:
        """Run one (scenario, method, seed) cell and return its row.

        Every method is a :data:`~repro.evaluation.runner.METHOD_REGISTRY`
        entry.  ``"taglets"`` runs once per stage of the scenario; any other
        method runs on the final stage's data (all arrivals landed).  The
        row's fallback count comes from a counter private to the cell; a
        caller that wants the counts too opens
        :func:`~repro.nn.collect_replay_stats` around the call.
        """
        if method not in METHOD_REGISTRY:
            raise KeyError(f"unknown method {method!r}; known: "
                           f"{sorted(METHOD_REGISTRY)}")
        scenario_task = spec.build(self.workspace)
        stages = (scenario_task.stages if method == "taglets"
                  else [scenario_task.final])
        stats = ReplayStats()
        extras: Dict[str, float] = {}
        started = time.perf_counter()
        with collect_replay_stats(stats):
            for stage, split in enumerate(stages):
                record = METHOD_REGISTRY[method].run(
                    self.workspace, split, spec.backbone, seed)
                if len(stages) > 1:
                    extras[f"stage{stage}_accuracy"] = record.accuracy
        wall_time = time.perf_counter() - started
        extras.update((key, record.extras[key]) for key in _ROW_EXTRAS
                      if key in record.extras)
        return ScenarioResult(
            scenario=spec.name, family=spec.family, method=method,
            dataset=spec.dataset, shots=spec.shots, backbone=spec.backbone,
            seed=seed, accuracy=record.accuracy, wall_time_s=wall_time,
            fallbacks=stats.fallback_count, axes=spec.axes(), extras=extras)

    # ------------------------------------------------------------------ #
    # Grids
    # ------------------------------------------------------------------ #
    def run_grid(self, specs: Sequence[ScenarioSpec],
                 methods: Sequence[str] = ("taglets", "finetune"),
                 seeds: Sequence[int] = (0,),
                 progress: Optional[Callable[[ScenarioResult], None]] = None
                 ) -> List[ScenarioResult]:
        """Run every (scenario, method, seed) cell and return all rows."""
        rows: List[ScenarioResult] = []
        for spec in specs:
            for method in methods:
                for seed in seeds:
                    row = self.run_cell(spec, method=method, seed=seed)
                    rows.append(row)
                    if progress is not None:
                        progress(row)
        return rows


def experiment_records(results: Iterable[ScenarioResult]) -> List[ExperimentResult]:
    """Scenario rows as scenario-tagged experiment records (for figures/tables)."""
    return [row.as_experiment_result() for row in results]
