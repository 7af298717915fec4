"""``repro.scenarios`` — the gated robustness grid over many synthetic worlds.

The paper's claim is that automatic SSL from auxiliary data survives hard
regimes; this package turns that claim into executable gates.  A declarative
:class:`ScenarioSpec` composes regime axes (label scarcity, class imbalance,
input corruption, distribution shift, class-incremental arrivals, streaming
unlabeled pools) into reproducible task splits over the synthetic world;
:meth:`repro.evaluation.ExperimentRunner.run_grid` sweeps TAGLETS and
baselines over the grid, recording accuracy, wall time, and replay fallback
counts on every :class:`~repro.evaluation.ExperimentResult`; and a
:class:`GateRegistry` asserts per-scenario accuracy floors — plus
taglets-beats-supervised margin floors where the paper predicts one —
non-advisorily, like the float32 parity gate but for robustness.

New backbones and methods land in this grid as new rows, not new test
suites.  See ``docs/scenarios.md``.
"""

from .gates import (DEFAULT_GATES, Gate, GateFailure, GateRegistry,
                    GateReport, default_registry)
from .grid import (SCENARIO_GRID, SMOKE_SCENARIOS, scenario_workspace,
                   scenario_workspace_spec)
from .scoreboard import (SCOREBOARD_SCHEMA, build_scoreboard,
                         format_scoreboard, load_scoreboard, write_scoreboard)
from .spec import (FAMILIES, CorruptionAxis, ScenarioSpec, apply_corruption,
                   apply_imbalance, apply_shift, class_incremental_splits,
                   streaming_splits)

__all__ = [
    "ScenarioSpec", "CorruptionAxis", "FAMILIES",
    "apply_imbalance", "apply_corruption", "apply_shift",
    "class_incremental_splits", "streaming_splits",
    "SCENARIO_GRID", "SMOKE_SCENARIOS",
    "scenario_workspace", "scenario_workspace_spec",
    "Gate", "GateReport", "GateFailure", "GateRegistry", "DEFAULT_GATES",
    "default_registry",
    "SCOREBOARD_SCHEMA", "build_scoreboard", "write_scoreboard",
    "load_scoreboard", "format_scoreboard",
]
