"""Computations behind the paper's figures (5–13 and the Figure 7 ablation).

The figures all derive from TAGLETS runs with extra measurements recorded in
the experiment records: per-module accuracy, ensemble accuracy, and end-model
accuracy.  These helpers turn flat records into the series each figure plots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import Aggregate, mean_confidence_interval
from .runner import ExperimentResult

__all__ = [
    "PRUNE_METHOD_LABELS",
    "module_accuracy_series",
    "ensemble_improvement_series",
    "module_removal_deltas",
]

#: Method name -> prune level used when recording TAGLETS runs.
PRUNE_METHOD_LABELS = {
    "taglets": "no_pruning",
    "taglets_prune0": "prune_level_0",
    "taglets_prune1": "prune_level_1",
}


def module_accuracy_series(records: Iterable[ExperimentResult], dataset: str,
                           backbone: str = "resnet50",
                           modules: Sequence[str] = ("multitask", "transfer",
                                                     "fixmatch", "zsl_kg"),
                           methods: Sequence[str] = ("taglets", "taglets_prune0",
                                                     "taglets_prune1"),
                           split_seed: Optional[int] = None,
                           scenario: Optional[str] = None
                           ) -> Dict[str, Dict[Tuple[int, str], Aggregate]]:
    """Figure 5/8/10/11 data: per-module accuracy by (shots, prune level).

    Returns ``module -> (shots, prune_label) -> Aggregate``.  ``scenario``
    selects scenario-matrix rows by recorded scenario name (no string
    parsing); ``None`` aggregates every matching record as before.
    """
    records = list(records)
    series: Dict[str, Dict[Tuple[int, str], List[float]]] = {m: {} for m in modules}
    for record in records:
        if record.dataset != dataset or record.backbone != backbone:
            continue
        if record.method not in methods:
            continue
        if split_seed is not None and record.split_seed != split_seed:
            continue
        if scenario is not None and record.scenario != scenario:
            continue
        prune_label = PRUNE_METHOD_LABELS.get(record.method, record.method)
        for module in modules:
            value = record.extras.get(f"module_{module}")
            if value is None:
                continue
            series[module].setdefault((record.shots, prune_label), []).append(value)
    return {module: {key: mean_confidence_interval(values)
                     for key, values in cells.items()}
            for module, cells in series.items()}


def ensemble_improvement_series(records: Iterable[ExperimentResult], dataset: str,
                                backbone: str = "resnet50",
                                modules: Sequence[str] = ("multitask", "transfer",
                                                          "fixmatch", "zsl_kg"),
                                methods: Sequence[str] = ("taglets",
                                                          "taglets_prune0",
                                                          "taglets_prune1"),
                                split_seed: Optional[int] = None,
                                scenario: Optional[str] = None
                                ) -> Dict[Tuple[int, str], Dict[str, Aggregate]]:
    """Figure 6/9/12/13 data: ensemble and end-model improvement over the
    average module accuracy, keyed by (shots, prune level).

    Returns ``(shots, prune_label) -> {"ensemble_gain": ..., "end_model_gain": ...}``.
    """
    records = list(records)
    gains: Dict[Tuple[int, str], Dict[str, List[float]]] = {}
    for record in records:
        if record.dataset != dataset or record.backbone != backbone:
            continue
        if record.method not in methods:
            continue
        if split_seed is not None and record.split_seed != split_seed:
            continue
        if scenario is not None and record.scenario != scenario:
            continue
        module_values = [record.extras[f"module_{m}"] for m in modules
                         if f"module_{m}" in record.extras]
        if not module_values or "ensemble" not in record.extras:
            continue
        average_module = float(np.mean(module_values))
        prune_label = PRUNE_METHOD_LABELS.get(record.method, record.method)
        cell = gains.setdefault((record.shots, prune_label),
                                {"ensemble_gain": [], "end_model_gain": []})
        cell["ensemble_gain"].append(record.extras["ensemble"] - average_module)
        cell["end_model_gain"].append(record.extras["end_model"] - average_module)
    return {key: {name: mean_confidence_interval(values)
                  for name, values in cell.items() if values}
            for key, cell in gains.items()}


def module_removal_deltas(full_records: Iterable[ExperimentResult],
                          ablated_records: Dict[str, Iterable[ExperimentResult]],
                          ) -> Dict[str, Aggregate]:
    """Figure 7 data: change in end-model accuracy when one module is removed.

    ``full_records`` are TAGLETS runs with all modules; ``ablated_records``
    maps the removed module's name to runs without it.  Deltas are computed
    between runs matched on (dataset, shots, split, backbone, seed); negative
    values mean removing the module hurts.
    """
    full_index = {(r.dataset, r.shots, r.split_seed, r.backbone, r.seed): r.accuracy
                  for r in full_records}
    deltas: Dict[str, Aggregate] = {}
    for removed_module, records in ablated_records.items():
        differences = []
        for record in records:
            key = (record.dataset, record.shots, record.split_seed,
                   record.backbone, record.seed)
            if key in full_index:
                differences.append(record.accuracy - full_index[key])
        if differences:
            deltas[removed_module] = mean_confidence_interval(differences)
    return deltas
