"""The SCENARIOS.json scoreboard: recorded grid results + gate outcomes.

A committed, versioned record of what the grid measured on the pinned
scenario workspace, which floors guard each scenario, and whether they held.
``scenario-smoke`` and the full ``-m scenarios`` sweep both regenerate their
slice and compare against the committed floors.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable

from ..evaluation.runner import ExperimentResult
from .gates import GateReport

__all__ = ["SCOREBOARD_SCHEMA", "build_scoreboard", "write_scoreboard",
           "load_scoreboard", "format_scoreboard"]

SCOREBOARD_SCHEMA = 1


def build_scoreboard(results: Iterable[ExperimentResult],
                     reports: Iterable[GateReport] = (),
                     workspace: str = "scenario_workspace(seed=0)"
                     ) -> Dict[str, object]:
    """Assemble the scoreboard dict from grid rows and gate reports."""
    scenarios: Dict[str, Dict[str, object]] = {}
    for row in results:
        entry = scenarios.setdefault(row.scenario, {
            "family": row.scenario_family,
            "dataset": row.dataset,
            "axes": dict(row.axes),
            "methods": {},
            "gates": [],
        })
        method_entry = entry["methods"].setdefault(row.method, {
            "accuracy": [], "wall_time_s": [], "fallbacks": 0, "extras": {},
        })
        method_entry["accuracy"].append(round(row.accuracy, 4))
        method_entry["wall_time_s"].append(round(row.wall_time_s, 3))
        method_entry["fallbacks"] += row.fallbacks
        method_entry["extras"].update(
            {k: round(float(v), 4) for k, v in row.extras.items()})

    for report in reports:
        entry = scenarios.get(report.gate.scenario)
        if entry is None:
            continue
        entry["gates"].append({
            "metric": report.gate.metric,
            "method": report.gate.method,
            "baseline": (report.gate.baseline
                         if report.gate.metric == "margin" else None),
            "floor": report.gate.floor,
            "observed": (None if report.observed is None
                         else round(report.observed, 4)),
            "passed": report.passed,
        })

    return {
        "schema": SCOREBOARD_SCHEMA,
        "workspace": workspace,
        "families": sorted({entry["family"] for entry in scenarios.values()}),
        "scenarios": {name: scenarios[name] for name in sorted(scenarios)},
    }


def write_scoreboard(path: str, results: Iterable[ExperimentResult],
                     reports: Iterable[GateReport] = (),
                     workspace: str = "scenario_workspace(seed=0)"
                     ) -> Dict[str, object]:
    """Write the scoreboard to ``path`` and return it."""
    scoreboard = build_scoreboard(results, reports, workspace=workspace)
    with open(path, "w") as handle:
        json.dump(scoreboard, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return scoreboard


def load_scoreboard(path: str) -> Dict[str, object]:
    with open(path) as handle:
        scoreboard = json.load(handle)
    if scoreboard.get("schema") != SCOREBOARD_SCHEMA:
        raise ValueError(
            f"unsupported scoreboard schema {scoreboard.get('schema')!r}; "
            f"expected {SCOREBOARD_SCHEMA}")
    return scoreboard


def format_scoreboard(results: Iterable[ExperimentResult],
                      reports: Iterable[GateReport] = ()) -> str:
    """A human-readable grid summary (printed by the smoke job)."""
    rows = sorted(results, key=lambda r: (r.scenario_family, r.scenario,
                                          r.method, r.seed))
    lines = [f"{'scenario':<26} {'family':<12} {'method':<10} "
             f"{'accuracy':>9} {'time':>7} {'fb':>3}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append(f"{row.scenario:<26} {row.scenario_family:<12} "
                     f"{row.method:<10} {row.accuracy:>9.3f} "
                     f"{row.wall_time_s:>6.1f}s "
                     f"{row.fallbacks:>3d}")
    reports = list(reports)
    if reports:
        lines.append("")
        lines.extend(str(report) for report in reports)
    return "\n".join(lines)
