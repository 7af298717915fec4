"""Tests for the experiment runner and record aggregation."""

import numpy as np
import pytest

from repro.evaluation import (METHOD_REGISTRY, ExperimentResult, ExperimentRunner,
                              MethodSpec, aggregate_records, baseline_method,
                              taglets_method)
from repro.modules import TransferConfig, TransferModule


def fake_record(method="m", dataset="d", shots=1, split_seed=0, backbone="b",
                seed=0, accuracy=0.5, extras=None):
    return ExperimentResult(method=method, dataset=dataset, shots=shots,
                            split_seed=split_seed, backbone=backbone, seed=seed,
                            accuracy=accuracy, extras=extras or {})


class TestRecords:
    def test_as_dict_includes_extras(self):
        record = fake_record(extras={"ensemble": 0.6})
        data = record.as_dict()
        assert data["accuracy"] == 0.5
        assert data["extra_ensemble"] == 0.6

    def test_untagged_record_has_no_scenario_keys(self):
        # Plain experiment records keep their pre-scenario dict shape, so
        # existing table/figure consumers see no new keys.
        data = fake_record().as_dict()
        assert "scenario" not in data
        assert not any(key.startswith("axis_") for key in data)

    def test_scenario_tagged_record_carries_metadata(self):
        record = ExperimentResult(
            method="taglets", dataset="fmd", shots=1, split_seed=0,
            backbone="resnet50", seed=0, accuracy=0.6,
            scenario="fmd_1shot", scenario_family="scarcity",
            axes={"shots": 1, "imbalance": 0.2})
        data = record.as_dict()
        assert data["scenario"] == "fmd_1shot"
        assert data["scenario_family"] == "scarcity"
        assert data["axis_shots"] == 1
        assert data["axis_imbalance"] == 0.2

    def test_aggregate_records_tolerates_absent_group_fields(self):
        # Grouping by scenario must not KeyError on untagged records —
        # they land under the None key instead.
        records = [fake_record(accuracy=0.4),
                   ExperimentResult(method="m", dataset="d", shots=1,
                                    split_seed=0, backbone="b", seed=0,
                                    accuracy=0.8, scenario="s",
                                    scenario_family="clean")]
        aggregates = aggregate_records(records, group_by=("scenario",))
        assert aggregates[(None,)].mean == pytest.approx(0.4)
        assert aggregates[("s",)].mean == pytest.approx(0.8)

    def test_aggregate_records_groups_and_averages(self):
        records = [fake_record(seed=0, accuracy=0.4), fake_record(seed=1, accuracy=0.6),
                   fake_record(method="other", accuracy=0.9)]
        aggregates = aggregate_records(records, group_by=("method",))
        assert aggregates[("m",)].mean == pytest.approx(0.5)
        assert aggregates[("other",)].mean == pytest.approx(0.9)

    def test_aggregate_records_on_extra_metric(self):
        records = [fake_record(extras={"ensemble": 0.7}),
                   fake_record(seed=1, extras={"ensemble": 0.9})]
        aggregates = aggregate_records(records, group_by=("method",),
                                       value="extra_ensemble")
        assert aggregates[("m",)].mean == pytest.approx(0.8)


class TestRegistry:
    def test_registry_contains_paper_methods(self):
        expected = {"finetune", "finetune_distilled", "fixmatch",
                    "meta_pseudo_labels", "taglets",
                    "taglets_prune0", "taglets_prune1"}
        assert expected <= set(METHOD_REGISTRY)

    def test_taglets_method_factory_names(self):
        spec = taglets_method("taglets_no_transfer",
                              modules=("multitask", "fixmatch", "zsl_kg"))
        assert isinstance(spec, MethodSpec)
        assert spec.name == "taglets_no_transfer"

    def test_baseline_method_trains_the_module_without_auxiliary_data(
            self, tiny_workspace, fmd_split):
        seen = []

        class Probe(TransferModule):
            def train(self, data):
                seen.append(data)
                return super().train(data)

        spec = baseline_method(
            "probe", lambda workspace: Probe(TransferConfig(target_epochs=2)))
        record = spec.run(tiny_workspace, fmd_split, "resnet50", 3)
        assert record.method == "probe" and record.seed == 3
        (data,) = seen
        assert data.auxiliary.is_empty() and data.seed == 3
        assert data.num_classes == fmd_split.num_classes


class TestRunner:
    def test_unknown_method_rejected(self, tiny_workspace):
        runner = ExperimentRunner(tiny_workspace)
        with pytest.raises(KeyError, match="known: .*'finetune'.*'taglets'"):
            runner.evaluate("nonexistent", "fmd", 1, 0, "resnet50", 0)

    def test_register_and_run_custom_method(self, tiny_workspace, tiny_backbone):
        """Run a tiny custom method through the full runner plumbing."""

        def run(workspace, split, backbone_name, seed):
            # A trivial majority-class 'method' — fast and deterministic.
            majority = np.bincount(split.labeled_labels).argmax()
            accuracy = float((split.test_labels == majority).mean())
            return ExperimentResult(method="majority", dataset=split.dataset_name,
                                    shots=split.shots, split_seed=split.split_seed,
                                    backbone=backbone_name, seed=seed,
                                    accuracy=accuracy)

        runner = ExperimentRunner(tiny_workspace, registry={})
        runner.register(MethodSpec(name="majority", run=run))
        records = [runner.evaluate("majority", "fmd", shots, 0, "unused", seed)
                   for shots in (1, 5) for seed in (0, 1)]
        assert {r.shots for r in records} == {1, 5}
        assert all(r.scenario is None and r.extras == {} for r in records)

    def test_paper_cell_is_timed_with_zero_fallbacks(self, tiny_workspace):
        record = ExperimentRunner(tiny_workspace).evaluate(
            "finetune", "fmd", 1, 0, "resnet50", 0)
        assert record.method == "finetune" and record.scenario is None
        assert record.wall_time_s > 0
        assert record.fallbacks == 0
