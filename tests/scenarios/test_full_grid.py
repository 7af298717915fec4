"""The full gated sweep (``-m scenarios``) and committed-scoreboard checks.

The full 14-scenario × 2-method sweep is deselected from tier-1 (it is the
``scenarios`` marker; CI runs it via the ``scenario-smoke`` job and the
nightly full sweep).  The scoreboard-consistency tests ARE tier-1: they only
read ``SCENARIOS.json`` and compare it against the in-code grid and gates.
"""

import os

import pytest

from repro.evaluation import ExperimentRunner
from repro.scenarios import (DEFAULT_GATES, SCENARIO_GRID, default_registry,
                             load_scoreboard)

SCOREBOARD_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                               "SCENARIOS.json")


class TestCommittedScoreboard:
    @pytest.fixture(scope="class")
    def scoreboard(self):
        return load_scoreboard(SCOREBOARD_PATH)

    def test_covers_every_grid_scenario(self, scoreboard):
        assert set(scoreboard["scenarios"]) == set(SCENARIO_GRID)

    def test_recorded_floors_match_registry(self, scoreboard):
        registry = default_registry()
        for name, entry in scoreboard["scenarios"].items():
            recorded = {(g["metric"], g["method"], g["floor"])
                        for g in entry["gates"]}
            in_code = {(g.metric, g.method, g.floor)
                       for g in registry.gates_for(name)}
            assert recorded == in_code, name

    def test_every_recorded_gate_passed(self, scoreboard):
        for name, entry in scoreboard["scenarios"].items():
            assert entry["gates"], name
            assert all(g["passed"] for g in entry["gates"]), name

    def test_recorded_rows_have_zero_fallbacks(self, scoreboard):
        for name, entry in scoreboard["scenarios"].items():
            for method, stats in entry["methods"].items():
                assert stats["fallbacks"] == 0, (name, method)

    def test_recorded_accuracies_clear_their_floors(self, scoreboard):
        # The safety margin the calibration promised: recorded accuracy sits
        # strictly above the floor, not at it.
        for name, entry in scoreboard["scenarios"].items():
            for gate in entry["gates"]:
                if gate["metric"] == "accuracy":
                    recorded = entry["methods"][gate["method"]]["accuracy"]
                    assert min(recorded) > gate["floor"], name


@pytest.mark.scenarios
class TestFullGrid:
    def test_full_grid_passes_every_gate(self, tiny_workspace):
        runner = ExperimentRunner(tiny_workspace)
        rows = runner.run_grid(list(SCENARIO_GRID.values()),
                               methods=("taglets", "finetune"), seeds=(0,))
        reports = default_registry().assert_all(rows, require_all=True)
        assert len(reports) == len(DEFAULT_GATES)
        assert all(row.fallbacks == 0 for row in rows)
