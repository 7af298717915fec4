"""Tests for the baseline methods of the evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (DistilledFineTuningBaseline, FineTuningConfig,
                             MetaPseudoLabelsBaseline, MetaPseudoLabelsConfig)
from repro.datasets.base import ClassSpec
from repro.evaluation import METHOD_REGISTRY
from repro.modules import FixMatchConfig, FixMatchModule, TransferModule
from repro.modules.base import ModuleInput
from repro.scads.query import AuxiliarySelection


@pytest.fixture(scope="module")
def baseline_input(tiny_workspace, tiny_backbone, fmd_split):
    dim = fmd_split.labeled_features.shape[1]
    return ModuleInput(classes=fmd_split.classes,
                       labeled_features=fmd_split.labeled_features,
                       labeled_labels=fmd_split.labeled_labels,
                       unlabeled_features=fmd_split.unlabeled_features[:100],
                       auxiliary=AuxiliarySelection.empty(dim),
                       backbone=tiny_backbone, seed=0)


@pytest.fixture()
def no_unlabeled(baseline_input):
    dim = baseline_input.labeled_features.shape[1]
    return replace(baseline_input, unlabeled_features=np.zeros((0, dim)))


FAST_FT = FineTuningConfig(distill_epochs=10)


class TestModuleInput:
    def test_validation(self, tiny_backbone):
        bad = ModuleInput(classes=[ClassSpec(name=f"c{i}", concept=f"c{i}")
                                   for i in range(3)],
                          labeled_features=np.zeros((2, 4)),
                          labeled_labels=np.array([0, 5]),
                          unlabeled_features=np.zeros((0, 4)),
                          auxiliary=AuxiliarySelection.empty(4),
                          backbone=tiny_backbone)
        with pytest.raises(ValueError):
            bad.validate()

    def test_empty_selection(self):
        selection = AuxiliarySelection.empty(7)
        assert selection.is_empty() and len(selection) == 0
        assert selection.features.shape == (0, 7)
        assert selection.num_aux_classes == 0


class TestRegistryBaselines:
    @pytest.mark.parametrize("name", ["finetune", "fixmatch"])
    def test_never_fine_tune_on_auxiliary_data(self, name, tiny_workspace,
                                               monkeypatch):
        # Fine-tuning and FixMatch are the Transfer and FixMatch modules on
        # an empty selection, which skips the intermediate phase.
        def refuse(*args, **kwargs):
            raise AssertionError("a baseline fine-tuned on auxiliary data")

        for module in ("base", "transfer", "fixmatch"):
            monkeypatch.setattr(f"repro.modules.{module}.fine_tune_on_auxiliary",
                                refuse)
        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        record = METHOD_REGISTRY[name].run(tiny_workspace, split, "resnet50", 0)
        assert record.method == name and 0.0 <= record.accuracy <= 1.0


class TestFineTuning:
    def test_finetune_beats_chance(self, baseline_input, fmd_split):
        # Plain fine-tuning: the Transfer module on an empty selection.
        taglet = TransferModule().train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes

    def test_distilled_finetune_runs_and_beats_chance(self, baseline_input, fmd_split):
        taglet = DistilledFineTuningBaseline(FAST_FT).train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes
        assert taglet.name == "finetune_distilled"

    def test_distilled_without_unlabeled_falls_back(self, no_unlabeled, fmd_split):
        taglet = DistilledFineTuningBaseline(FAST_FT).train(no_unlabeled)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > 0


class TestFixMatchBaseline:
    def test_beats_chance(self, baseline_input, fmd_split):
        # The FixMatch module on an empty selection.
        module = FixMatchModule(FixMatchConfig(head_warmup_epochs=15, epochs=3))
        taglet = module.train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes


class TestMetaPseudoLabels:
    def test_beats_chance(self, baseline_input, fmd_split):
        config = MetaPseudoLabelsConfig(steps=80, finetune_epochs=20)
        taglet = MetaPseudoLabelsBaseline(config).train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            1.5 / fmd_split.num_classes

    def test_without_unlabeled_degenerates_to_finetuning(self, no_unlabeled,
                                                         fmd_split):
        config = MetaPseudoLabelsConfig(steps=10, finetune_epochs=6)
        taglet = MetaPseudoLabelsBaseline(config).train(no_unlabeled)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > 0

    def test_value_only_forwards_record_no_tape(self, baseline_input,
                                                monkeypatch):
        # Per step, the teacher's pseudo-label forward and the student's
        # loss_before/loss_after forwards only read values: every forward
        # that records a tape must reach a loss that runs backward.
        from repro.backbones.backbone import ClassificationModel
        from repro.nn.tensor import Tensor

        outputs, roots = [], []
        forward, backward = ClassificationModel.__call__, Tensor.backward

        def recording_forward(model, x):
            outputs.append(forward(model, x))
            return outputs[-1]

        def recording_backward(tensor, grad=None):
            roots.append(tensor)
            return backward(tensor, grad)

        monkeypatch.setattr(ClassificationModel, "__call__", recording_forward)
        monkeypatch.setattr(Tensor, "backward", recording_backward)
        steps = 3
        config = MetaPseudoLabelsConfig(steps=steps, finetune_epochs=1)
        MetaPseudoLabelsBaseline(config).train(baseline_input)
        reached, pending = set(), list(roots)
        while pending:
            tensor = pending.pop()
            if id(tensor) not in reached:
                reached.add(id(tensor))
                pending.extend(tensor._parents)
        taped = [out for out in outputs if out.requires_grad]
        assert all(id(out) in reached for out in taped)
        assert len(outputs) - len(taped) == 3 * steps

    def test_student_backbone_override(self, baseline_input, tiny_backbone):
        config = MetaPseudoLabelsConfig(steps=5, finetune_epochs=2)
        baseline = MetaPseudoLabelsBaseline(config, student_backbone=tiny_backbone)
        taglet = baseline.train(baseline_input)
        assert taglet.model.encoder.spec.name == tiny_backbone.name
