"""Tests for the baseline methods of the evaluation."""

import numpy as np
import pytest

from repro.baselines import (BaselineInput, DistilledFineTuningBaseline,
                             FineTuningBaseline, FineTuningConfig,
                             FixMatchBaseline, MetaPseudoLabelsBaseline,
                             MetaPseudoLabelsConfig)
from repro.modules.fixmatch import FixMatchConfig, FixMatchModule


@pytest.fixture(scope="module")
def baseline_input(tiny_workspace, tiny_backbone, fmd_split):
    return BaselineInput(labeled_features=fmd_split.labeled_features,
                         labeled_labels=fmd_split.labeled_labels,
                         unlabeled_features=fmd_split.unlabeled_features[:100],
                         num_classes=fmd_split.num_classes,
                         backbone=tiny_backbone, seed=0)


FAST_FT = FineTuningConfig(epochs=30, distill_epochs=10)


class TestBaselineInput:
    def test_validation(self, tiny_backbone):
        bad = BaselineInput(labeled_features=np.zeros((2, 4)),
                            labeled_labels=np.array([0, 5]),
                            unlabeled_features=np.zeros((0, 4)),
                            num_classes=3, backbone=tiny_backbone)
        with pytest.raises(ValueError):
            bad.validate()


class TestFineTuning:
    def test_finetune_beats_chance(self, baseline_input, fmd_split):
        taglet = FineTuningBaseline(FAST_FT).train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes
        assert taglet.name == "finetune"

    def test_distilled_finetune_runs_and_beats_chance(self, baseline_input, fmd_split):
        taglet = DistilledFineTuningBaseline(FAST_FT).train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes
        assert taglet.name == "finetune_distilled"

    def test_distilled_without_unlabeled_falls_back(self, baseline_input, fmd_split):
        import copy

        no_unlabeled = copy.copy(baseline_input)
        no_unlabeled.unlabeled_features = np.zeros(
            (0, baseline_input.labeled_features.shape[1]))
        taglet = DistilledFineTuningBaseline(FAST_FT).train(no_unlabeled)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > 0


class TestFixMatchBaseline:
    def test_never_uses_auxiliary_data(self):
        baseline = FixMatchBaseline(FixMatchConfig(use_aux_pretraining=True))
        assert baseline._module.config.use_aux_pretraining is False

    def test_leaves_a_shared_config_untouched(self):
        config = FixMatchConfig()
        module = FixMatchModule(config)
        FixMatchBaseline(config)
        assert config.use_aux_pretraining is True
        assert module.config.use_aux_pretraining is True

    def test_beats_chance(self, baseline_input, fmd_split):
        baseline = FixMatchBaseline(FixMatchConfig(head_warmup_epochs=15, epochs=3))
        taglet = baseline.train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            2.0 / fmd_split.num_classes
        assert taglet.name == "fixmatch_baseline"


class TestMetaPseudoLabels:
    def test_beats_chance(self, baseline_input, fmd_split):
        config = MetaPseudoLabelsConfig(steps=80, finetune_epochs=20)
        taglet = MetaPseudoLabelsBaseline(config).train(baseline_input)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > \
            1.5 / fmd_split.num_classes

    def test_without_unlabeled_degenerates_to_finetuning(self, baseline_input,
                                                         fmd_split):
        import copy

        no_unlabeled = copy.copy(baseline_input)
        no_unlabeled.unlabeled_features = np.zeros(
            (0, baseline_input.labeled_features.shape[1]))
        config = MetaPseudoLabelsConfig(steps=10, finetune_epochs=6)
        taglet = MetaPseudoLabelsBaseline(config).train(no_unlabeled)
        assert taglet.accuracy(fmd_split.test_features, fmd_split.test_labels) > 0

    def test_student_backbone_override(self, baseline_input, tiny_backbone):
        config = MetaPseudoLabelsConfig(steps=5, finetune_epochs=2)
        baseline = MetaPseudoLabelsBaseline(config, student_backbone=tiny_backbone)
        taglet = baseline.train(baseline_input)
        assert taglet.model.encoder.spec.name == tiny_backbone.name
