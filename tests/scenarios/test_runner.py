"""Tests for scenario cells and the scoreboard on the shared tiny workspace.

The session ``tiny_workspace`` fixture is spec-identical to
``scenario_workspace()`` (same graph, world, SCADS, and seeds), so cells run
here exercise exactly the data the committed floors were calibrated on.
"""

import pytest

from repro.scenarios import (SCENARIO_GRID, Gate, GateRegistry, ScenarioSpec,
                             build_scoreboard, format_scoreboard,
                             load_scoreboard, scenario_workspace_spec,
                             write_scoreboard)
from repro.evaluation import (METHOD_REGISTRY, ExperimentRunner,
                              aggregate_records)
from repro.nn import ReplayStats, collect_replay_stats


@pytest.fixture(scope="module")
def runner(tiny_workspace):
    return ExperimentRunner(tiny_workspace)


@pytest.fixture(scope="module")
def clean_rows(runner):
    spec = SCENARIO_GRID["fmd_5shot_clean"]
    return [runner.run_cell(spec, method="taglets", seed=0),
            runner.run_cell(spec, method="finetune", seed=0)]


class TestWorkspacePinning:
    def test_scenario_workspace_matches_test_fixture(self, tiny_workspace):
        # Floors calibrated on the scenario workspace transfer bit-for-bit
        # to rows computed on the tests' session workspace.
        assert scenario_workspace_spec() == tiny_workspace.spec


class TestRunCell:
    def test_taglets_row_complete(self, clean_rows):
        row = clean_rows[0]
        assert row.scenario == "fmd_5shot_clean"
        assert row.scenario_family == "clean" and row.method == "taglets"
        assert 0.0 <= row.accuracy <= 1.0
        assert row.wall_time_s > 0
        assert row.fallbacks == 0
        assert row.axes == {"shots": 5}
        assert row.split_seed == 0
        # the final stage's ensemble/end-model accuracies, no module extras
        assert set(row.extras) == {"ensemble", "end_model"}

    def test_baseline_row(self, clean_rows):
        row = clean_rows[1]
        assert row.method == "finetune" and row.fallbacks == 0
        assert row.wall_time_s > 0 and row.extras == {}

    def test_row_records_the_spec_split_seed(self, runner):
        spec = ScenarioSpec(name="probe_split1", family="clean",
                            dataset="fmd", shots=1, split_seed=1)
        row = runner.run_cell(spec, method="finetune", seed=0)
        assert row.split_seed == 1
        assert row.scenario == "probe_split1"

    def test_unknown_method(self, runner):
        with pytest.raises(KeyError, match="known: .*'finetune'.*'taglets'"):
            runner.run_cell(SCENARIO_GRID["fmd_5shot_clean"], method="magic")

    def test_multi_stage_records_per_stage_accuracy(self, runner):
        spec = ScenarioSpec(name="probe_2phase", family="incremental",
                            dataset="fmd", shots=5, phases=2)
        row = runner.run_cell(spec, method="taglets", seed=0)
        assert {"stage0_accuracy", "stage1_accuracy"} <= set(row.extras)
        assert row.extras["stage1_accuracy"] == pytest.approx(row.accuracy)
        assert row.fallbacks == 0

    def test_multi_stage_cell_is_per_stage_registry_runs(self, runner,
                                                         tiny_workspace):
        spec = SCENARIO_GRID["cifar_incremental_2phase"]
        row = runner.run_cell(spec, method="taglets", seed=0)
        stats = ReplayStats()
        with collect_replay_stats(stats):
            records = [METHOD_REGISTRY["taglets"].run(tiny_workspace, split,
                                                      spec.backbone, 0)
                       for split in spec.build(tiny_workspace)]
        final = records[-1]
        assert row.accuracy == final.accuracy
        assert row.extras == {"stage0_accuracy": records[0].accuracy,
                              "stage1_accuracy": final.accuracy,
                              "ensemble": final.extras["ensemble"],
                              "end_model": final.extras["end_model"]}
        assert row.fallbacks == stats.fallback_count == 0


class TestRunGrid:
    def test_grid_yields_row_per_cell(self, runner, clean_rows):
        rows = runner.run_grid([SCENARIO_GRID["fmd_5shot_clean"]],
                               methods=("taglets", "finetune"), seeds=(0,))
        assert [(row.method, row.accuracy) for row in rows] == [
            (row.method, row.accuracy) for row in clean_rows]


class TestScenarioRecords:
    def test_rows_are_scenario_tagged_records(self, clean_rows):
        for record in clean_rows:
            data = record.as_dict()
            assert data["scenario"] == "fmd_5shot_clean"
            assert data["scenario_family"] == "clean"
            assert data["axis_shots"] == 5

    def test_records_aggregate_by_scenario(self, clean_rows):
        aggregates = aggregate_records(clean_rows,
                                       group_by=("scenario", "method"))
        assert ("fmd_5shot_clean", "taglets") in aggregates


class TestScoreboard:
    def test_round_trip(self, clean_rows, tmp_path):
        registry = GateRegistry([Gate("fmd_5shot_clean", "accuracy", 0.1)])
        reports = registry.check(clean_rows)
        path = tmp_path / "scoreboard.json"
        written = write_scoreboard(str(path), clean_rows, reports)
        loaded = load_scoreboard(str(path))
        assert loaded == written
        entry = loaded["scenarios"]["fmd_5shot_clean"]
        assert set(entry["methods"]) == {"taglets", "finetune"}
        assert entry["methods"]["taglets"]["fallbacks"] == 0
        assert entry["gates"][0]["passed"] is True

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(ValueError):
            load_scoreboard(str(path))

    def test_build_scoreboard_families(self, clean_rows):
        scoreboard = build_scoreboard(clean_rows)
        assert scoreboard["families"] == ["clean"]

    def test_format_scoreboard_mentions_rows(self, clean_rows):
        text = format_scoreboard(clean_rows)
        assert "fmd_5shot_clean" in text and "taglets" in text
