"""Formatting experiment records into the paper's table layout.

Tables 1–4 report accuracy (%) per method and backbone with columns for the
shot counts; :func:`format_results_table` renders the same layout as plain
text so the benchmark harness can print rows directly comparable to the
paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .metrics import Aggregate
from .runner import ExperimentResult, aggregate_records

__all__ = ["results_matrix", "format_results_table", "format_series"]

#: Human-readable method names matching the paper's rows.
METHOD_LABELS = {
    "finetune": "Fine-tuning",
    "finetune_distilled": "Fine-tuning (Distilled)",
    "fixmatch": "FixMatch",
    "meta_pseudo_labels": "Meta Pseudo Label",
    "taglets": "TAGLETS",
    "taglets_prune0": "TAGLETS prune-level 0",
    "taglets_prune1": "TAGLETS prune-level 1",
}

BACKBONE_LABELS = {
    "bit": "BiT (ImageNet-21k)",
    "resnet50": "ResNet-50 (ImageNet-1k)",
}


def results_matrix(records: Iterable[ExperimentResult], dataset: str,
                   backbone: str, shots_list: Sequence[int],
                   methods: Sequence[str],
                   split_seed: Optional[int] = None,
                   scenario: Optional[str] = None
                   ) -> Dict[str, Dict[int, Aggregate]]:
    """Aggregate records into ``method -> shots -> Aggregate`` for one table block.

    ``scenario`` selects scenario-matrix rows by name (``None`` keeps the
    seed behaviour of aggregating every matching record); scenario provenance
    lives on the records themselves, so no string parsing is involved.
    """
    records = [r for r in records
               if r.dataset == dataset and r.backbone == backbone
               and (split_seed is None or r.split_seed == split_seed)
               and (scenario is None or r.scenario == scenario)]
    aggregates = aggregate_records(records, group_by=("method", "shots"))
    matrix: Dict[str, Dict[int, Aggregate]] = {}
    for method in methods:
        row: Dict[int, Aggregate] = {}
        for shots in shots_list:
            key = (method, shots)
            if key in aggregates:
                row[shots] = aggregates[key]
        if row:
            matrix[method] = row
    return matrix


def format_results_table(records: Iterable[ExperimentResult], dataset: str,
                         shots_list: Sequence[int], methods: Sequence[str],
                         backbones: Sequence[str] = ("bit", "resnet50"),
                         split_seed: Optional[int] = None,
                         scenario: Optional[str] = None,
                         title: Optional[str] = None,
                         as_percent: bool = True) -> str:
    """Render a paper-style table: one block per backbone, rows per method."""
    records = list(records)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = f"{'Method':<28} {'Backbone':<26} " + " ".join(
        f"{shots}-shot".rjust(14) for shots in shots_list)
    lines.append(header)
    lines.append("-" * len(header))
    scale = 100.0 if as_percent else 1.0
    for backbone in backbones:
        matrix = results_matrix(records, dataset, backbone, shots_list, methods,
                                split_seed=split_seed, scenario=scenario)
        for method in methods:
            if method not in matrix:
                continue
            row = matrix[method]
            cells = []
            for shots in shots_list:
                if shots in row:
                    aggregate = row[shots]
                    cells.append(f"{aggregate.mean * scale:6.2f}±"
                                 f"{aggregate.half_width * scale:5.2f}".rjust(14))
                else:
                    cells.append("-".rjust(14))
            lines.append(f"{METHOD_LABELS.get(method, method):<28} "
                         f"{BACKBONE_LABELS.get(backbone, backbone):<26} "
                         + " ".join(cells))
        lines.append("-" * len(header))
    return "\n".join(lines)


def format_series(series: Dict[str, Dict], title: str,
                  as_percent: bool = True) -> str:
    """Render nested ``{row -> {column -> value}}`` data as an aligned text block."""
    lines = [title, "=" * len(title)]
    scale = 100.0 if as_percent else 1.0
    columns: List = sorted({c for row in series.values() for c in row})
    header = f"{'':<28} " + " ".join(str(c).rjust(12) for c in columns)
    lines.append(header)
    for row_name, row in series.items():
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append("-".rjust(12))
            elif isinstance(value, Aggregate):
                cells.append(f"{value.mean * scale:6.2f}±{value.half_width * scale:4.2f}"
                             .rjust(12))
            else:
                cells.append(f"{float(value) * scale:8.2f}".rjust(12))
        lines.append(f"{row_name:<28} " + " ".join(cells))
    return "\n".join(lines)
