"""Tests for the Controller: the end-to-end TAGLETS pipeline."""

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig
from repro.modules import (FixMatchConfig, FixMatchModule, MultiTaskConfig,
                           MultiTaskModule, TransferConfig, TransferModule,
                           ZslKgConfig, ZslKgModule)


def fast_modules():
    """Module instances with reduced budgets, for quick integration tests."""
    return [
        MultiTaskModule(MultiTaskConfig(epochs=6)),
        TransferModule(TransferConfig(aux_epochs=6, target_epochs=15)),
        FixMatchModule(FixMatchConfig(aux_epochs=4, head_warmup_epochs=10, epochs=3)),
        ZslKgModule(ZslKgConfig(pretrain_epochs=200, max_training_concepts=400,
                                images_per_prototype=6)),
    ]


@pytest.fixture(scope="module")
def fast_config():
    return ControllerConfig(end_model=EndModelConfig(epochs=15), seed=0)


@pytest.fixture(scope="module")
def task(tiny_workspace, tiny_backbone, fmd_split):
    return Task.from_split(fmd_split, scads=tiny_workspace.scads,
                           backbone=tiny_backbone,
                           wanted_num_related_class=3, images_per_related_class=8)


@pytest.fixture(scope="module")
def result(task, fast_config):
    controller = Controller(modules=fast_modules(), config=fast_config)
    return controller.run(task)


class TestControllerPipeline:
    def test_produces_all_artifacts(self, result, task):
        assert len(result.taglets) == 4
        assert result.end_model is not None
        assert result.pseudo_labels.shape == (len(task.unlabeled_features),
                                              task.num_classes)
        np.testing.assert_allclose(result.pseudo_labels.sum(axis=1),
                                   np.ones(len(task.unlabeled_features)))
        assert not result.auxiliary.is_empty()

    def test_end_model_beats_chance(self, result, fmd_split):
        accuracy = result.end_model_accuracy(fmd_split.test_features,
                                             fmd_split.test_labels)
        assert accuracy > 2.0 / fmd_split.num_classes

    def test_module_and_ensemble_accuracies(self, result, fmd_split):
        accuracies = result.module_accuracies(fmd_split.test_features,
                                              fmd_split.test_labels)
        assert set(accuracies) == {"multitask", "transfer", "fixmatch", "zsl_kg"}
        ensemble = result.ensemble_accuracy(fmd_split.test_features,
                                            fmd_split.test_labels)
        assert ensemble >= max(accuracies.values()) - 0.25

    def test_taglet_lookup(self, result):
        assert result.taglet("transfer").name == "transfer"
        with pytest.raises(KeyError):
            result.taglet("missing")


class TestControllerConfiguration:
    def test_module_names_resolution(self):
        controller = Controller(modules=("transfer", "zsl_kg"))
        assert [m.name for m in controller.modules] == ["transfer", "zsl_kg"]
        with pytest.raises(KeyError):
            Controller(modules=("unknown_module",))
        with pytest.raises(ValueError):
            Controller(modules=[])

    def test_requires_backbone(self, tiny_workspace, fmd_split):
        task = Task.from_split(fmd_split, scads=tiny_workspace.scads)
        with pytest.raises(RuntimeError):
            Controller(modules=["transfer"]).run(task)

    def test_runs_without_scads(self, tiny_backbone, fmd_split, fast_config):
        task = Task.from_split(fmd_split, scads=None, backbone=tiny_backbone)
        controller = Controller(
            modules=[TransferModule(TransferConfig(aux_epochs=1, target_epochs=6))],
            config=fast_config)
        result = controller.run(task)
        assert result.auxiliary.is_empty()
        assert result.end_model is not None

    def test_pruning_changes_selection(self, task, fast_config):
        unpruned = Controller(modules=["transfer"], config=fast_config)
        unpruned_selection = unpruned.select_auxiliary_data(task)
        pruned = Controller(modules=["transfer"],
                            config=ControllerConfig(prune_level=1, seed=0))
        pruned_selection = pruned.select_auxiliary_data(task)
        assert set(unpruned_selection.concepts) != set(pruned_selection.concepts)

    def test_run_returns_the_end_model(self, task, fast_config):
        controller = Controller(
            modules=[TransferModule(TransferConfig(aux_epochs=2, target_epochs=6))],
            config=fast_config)
        end_model = controller.run(task).end_model
        assert end_model.name == "end_model"
