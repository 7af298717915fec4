"""Tests for the gate registry: floors, margins, and failure semantics."""

import pytest

from repro.evaluation import ExperimentResult
from repro.scenarios import (DEFAULT_GATES, SCENARIO_GRID, Gate, GateFailure,
                             GateRegistry, default_registry)


def _row(scenario="s", method="taglets", accuracy=0.5, seed=0, family="clean"):
    return ExperimentResult(method=method, dataset="fmd", shots=5,
                            split_seed=0, backbone="resnet50", seed=seed,
                            accuracy=accuracy, wall_time_s=0.1,
                            scenario=scenario, scenario_family=family)


class TestAccuracyGates:
    def test_pass_and_fail(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.4)])
        passing = registry.check([_row(accuracy=0.5)])
        assert len(passing) == 1 and passing[0].passed
        assert passing[0].observed == pytest.approx(0.5)
        failing = registry.check([_row(accuracy=0.3)])
        assert not failing[0].passed

    def test_mean_over_seeds(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.45)])
        rows = [_row(accuracy=0.4, seed=0), _row(accuracy=0.6, seed=1)]
        report = registry.check(rows)[0]
        assert report.passed and report.observed == pytest.approx(0.5)

    def test_boundary_equality_passes(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.5)])
        assert registry.check([_row(accuracy=0.5)])[0].passed


class TestMarginGates:
    def test_margin_is_method_minus_baseline(self):
        registry = GateRegistry(
            [Gate("s", "margin", 0.1, method="taglets", baseline="finetune")])
        rows = [_row(method="taglets", accuracy=0.7),
                _row(method="finetune", accuracy=0.55)]
        report = registry.check(rows)[0]
        assert report.passed and report.observed == pytest.approx(0.15)

    def test_margin_breached(self):
        registry = GateRegistry([Gate("s", "margin", 0.2)])
        rows = [_row(method="taglets", accuracy=0.6),
                _row(method="finetune", accuracy=0.55)]
        assert not registry.check(rows)[0].passed

    def test_missing_baseline_fails(self):
        registry = GateRegistry([Gate("s", "margin", 0.1)])
        report = registry.check([_row(method="taglets")])[0]
        assert not report.passed and report.observed is None


class TestMissingRows:
    def test_absent_scenario_skipped_by_default(self):
        # A smoke subset must not be failed for scenarios it never ran.
        registry = GateRegistry([Gate("ran", "accuracy", 0.4),
                                 Gate("not_ran", "accuracy", 0.4)])
        reports = registry.check([_row(scenario="ran", accuracy=0.5)])
        assert len(reports) == 1 and reports[0].gate.scenario == "ran"

    def test_require_all_fails_absent_scenario(self):
        registry = GateRegistry([Gate("not_ran", "accuracy", 0.4)])
        reports = registry.check([_row(scenario="other")], require_all=True)
        assert len(reports) == 1 and not reports[0].passed

    def test_present_scenario_missing_method_always_fails(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.4,
                                      method="taglets")])
        report = registry.check([_row(method="finetune")])[0]
        assert not report.passed and "taglets" in report.detail


class TestAssertAll:
    def test_raises_naming_every_breach(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.9),
                                 Gate("s", "margin", 0.5)])
        rows = [_row(method="taglets", accuracy=0.5),
                _row(method="finetune", accuracy=0.4)]
        with pytest.raises(GateFailure) as excinfo:
            registry.assert_all(rows)
        message = str(excinfo.value)
        assert "2 scenario gate(s) breached" in message
        assert "accuracy >= 0.90" in message and "margin >= 0.50" in message

    def test_returns_reports_when_all_pass(self):
        registry = GateRegistry([Gate("s", "accuracy", 0.4)])
        reports = registry.assert_all([_row(accuracy=0.5)])
        assert len(reports) == 1 and all(r.passed for r in reports)

    def test_gate_failure_is_assertion_error(self):
        assert issubclass(GateFailure, AssertionError)


class TestGateBasics:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            Gate("s", "f1", 0.5)

    def test_describe_and_report_str(self):
        gate = Gate("s", "margin", 0.1)
        assert "margin >= 0.10" in gate.describe()
        registry = GateRegistry([Gate("s", "accuracy", 0.4)])
        assert "[PASS]" in str(registry.check([_row(accuracy=0.5)])[0])

    def test_gates_for(self):
        registry = default_registry()
        assert len(registry) == len(DEFAULT_GATES)
        assert registry.gates_for("fmd_1shot")


class TestDefaultRegistry:
    def test_every_default_gate_targets_a_grid_scenario(self):
        for gate in DEFAULT_GATES:
            assert gate.scenario in SCENARIO_GRID

    def test_floors_cover_every_grid_scenario(self):
        guarded = {gate.scenario for gate in DEFAULT_GATES}
        assert guarded == set(SCENARIO_GRID)

    def test_margin_gates_guard_scarce_regimes(self):
        # The paper's headline claim: auxiliary data beats supervised
        # fine-tuning when labels are scarce.  At least one margin floor
        # must gate it.
        margins = [g for g in DEFAULT_GATES if g.metric == "margin"]
        assert margins
        assert all(SCENARIO_GRID[g.scenario].family == "scarcity"
                   for g in margins)
