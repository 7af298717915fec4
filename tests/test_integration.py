"""End-to-end integration tests reproducing the paper's headline behaviours
at miniature scale.

These are the most important tests in the suite: they check the *shape* of
the paper's findings (auxiliary + unlabeled data helps most in the few-shot
regime; pruning degrades auxiliary usefulness; the ensemble improves over
individual modules) rather than any particular number.
"""

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig, Task
from repro.modules import TransferModule
from repro.modules.base import ModuleInput
from repro.scads.query import AuxiliarySelection


def run_taglets(workspace, backbone, split, prune_level=None):
    task = Task.from_split(split, scads=workspace.scads, backbone=backbone)
    config = ControllerConfig(prune_level=prune_level, seed=0)
    controller = Controller(config=config)
    return controller.run(task)


def run_finetune(backbone, split):
    # Plain fine-tuning: the Transfer module with no auxiliary data.
    data = ModuleInput(classes=split.classes,
                       labeled_features=split.labeled_features,
                       labeled_labels=split.labeled_labels,
                       unlabeled_features=split.unlabeled_features,
                       auxiliary=AuxiliarySelection.empty(
                           split.labeled_features.shape[1]),
                       backbone=backbone, seed=0)
    return TransferModule().train(data)


@pytest.fixture(scope="module")
def few_shot_results(tiny_workspace, tiny_backbone):
    split = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
    taglets_result = run_taglets(tiny_workspace, tiny_backbone, split)
    finetune_taglet = run_finetune(tiny_backbone, split)
    return split, taglets_result, finetune_taglet


class TestHeadlineClaims:
    def test_taglets_beats_finetuning_in_few_shot(self, few_shot_results):
        """Paper Section 4.4.1: TAGLETS most beneficial in the few-shot setting."""
        split, taglets_result, finetune_taglet = few_shot_results
        taglets_accuracy = taglets_result.end_model_accuracy(split.test_features,
                                                             split.test_labels)
        finetune_accuracy = finetune_taglet.accuracy(split.test_features,
                                                     split.test_labels)
        assert taglets_accuracy > finetune_accuracy

    def test_ensemble_improves_over_average_module(self, few_shot_results):
        """Paper Section 4.4.3: ensembling beats the average module accuracy."""
        split, taglets_result, _ = few_shot_results
        module_accuracies = taglets_result.module_accuracies(split.test_features,
                                                             split.test_labels)
        ensemble_accuracy = taglets_result.ensemble_accuracy(split.test_features,
                                                             split.test_labels)
        assert ensemble_accuracy >= np.mean(list(module_accuracies.values()))

    def test_end_model_close_to_ensemble(self, few_shot_results):
        """Paper Section 4.4.3: the servable end model stays within a few points
        of the ensemble."""
        split, taglets_result, _ = few_shot_results
        ensemble_accuracy = taglets_result.ensemble_accuracy(split.test_features,
                                                             split.test_labels)
        end_accuracy = taglets_result.end_model_accuracy(split.test_features,
                                                         split.test_labels)
        assert end_accuracy >= ensemble_accuracy - 0.15

    def test_pseudo_labels_are_probability_vectors(self, few_shot_results):
        _, taglets_result, _ = few_shot_results
        pseudo = taglets_result.pseudo_labels
        np.testing.assert_allclose(pseudo.sum(axis=1), np.ones(len(pseudo)))


class TestPruningBehaviour:
    def test_pruning_selects_more_distant_concepts(self, tiny_workspace,
                                                   tiny_backbone):
        """Paper Section 4.4.2 / Figure 4: pruning forces SCADS to retrieve
        less-related auxiliary data (measured via visual prototype distance)."""
        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        task = Task.from_split(split, scads=tiny_workspace.scads,
                               backbone=tiny_backbone,
                               wanted_num_related_class=3,
                               images_per_related_class=5)

        def mean_prototype_distance(prune_level):
            controller = Controller(modules=["transfer"],
                                    config=ControllerConfig(prune_level=prune_level))
            selection = controller.select_auxiliary_data(task)
            distances = []
            for spec in split.classes:
                for concept in selection.per_target_concepts.get(spec.name, []):
                    distances.append(tiny_workspace.world.prototype_distance(
                        spec.concept, concept))
            return float(np.mean(distances))

        no_pruning = mean_prototype_distance(None)
        level_1 = mean_prototype_distance(1)
        assert no_pruning < level_1
