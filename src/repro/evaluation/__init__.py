"""``repro.evaluation`` — metrics, the experiment runner, and table/figure formatting."""

from .figures import (ensemble_improvement_series, module_accuracy_series,
                      module_removal_deltas)
from .metrics import Aggregate, mean_confidence_interval
from .runner import (METHOD_REGISTRY, TABLE_METHODS, TABLE_PRUNED_METHODS,
                     ExperimentResult, ExperimentRunner, MethodSpec,
                     aggregate_records, baseline_method, taglets_method)
from .tables import format_results_table, format_series, results_matrix

__all__ = [
    "mean_confidence_interval", "Aggregate",
    "ExperimentResult", "MethodSpec", "ExperimentRunner",
    "taglets_method", "baseline_method", "METHOD_REGISTRY",
    "TABLE_METHODS", "TABLE_PRUNED_METHODS", "aggregate_records",
    "results_matrix", "format_results_table", "format_series",
    "module_accuracy_series", "ensemble_improvement_series",
    "module_removal_deltas",
]
