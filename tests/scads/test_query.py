"""Tests for SCADS auxiliary-data selection."""

import numpy as np
import pytest

from repro.datasets import ClassSpec
from repro.scads import select_auxiliary_data, target_class_vector


@pytest.fixture(scope="module")
def bundle(tiny_workspace):
    return tiny_workspace.scads


@pytest.fixture(scope="module")
def fmd_classes(tiny_workspace):
    return tiny_workspace.dataset("fmd").classes


class TestSelection:
    def test_selection_size_bounds(self, bundle, fmd_classes):
        selection = select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                          num_related_concepts=3, images_per_concept=5,
                                          rng=np.random.default_rng(0))
        assert 0 < len(selection) <= len(fmd_classes) * 3 * 5
        assert selection.num_aux_classes <= len(fmd_classes) * 3
        assert selection.features.shape[1] == bundle.scads.image_dim
        assert selection.labels.max() == selection.num_aux_classes - 1

    def test_selected_concepts_are_semantically_related(self, bundle, fmd_classes):
        selection = select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                          num_related_concepts=5, images_per_concept=2,
                                          rng=np.random.default_rng(0))
        plastic_related = selection.per_target_concepts["plastic"]
        assert plastic_related, "no concepts selected for plastic"
        # At least one selected concept should be from the plastic neighbourhood.
        neighbourhood = set(bundle.scads.graph.descendants("plastic")) | {"plastic"}
        neighbourhood |= {n for n, _, _ in bundle.scads.graph.neighbors("plastic")}
        assert set(plastic_related) & neighbourhood

    def test_concepts_deduplicated(self, bundle, fmd_classes):
        selection = select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                          num_related_concepts=3, images_per_concept=2,
                                          rng=np.random.default_rng(0))
        assert len(selection.concepts) == len(set(selection.concepts))

    def test_target_concepts_with_images_are_selectable(self, bundle, fmd_classes):
        # The paper's unpruned setting: a target concept that has images in
        # SCADS is its own nearest concept, so it is selected for itself.
        with_images = set(bundle.scads.concepts_with_images())
        targets = [c for c in fmd_classes if c.concept in with_images]
        assert targets
        selection = select_auxiliary_data(bundle.scads, bundle.embedding, targets,
                                          num_related_concepts=1, images_per_concept=2,
                                          rng=np.random.default_rng(0))
        for spec in targets:
            assert selection.per_target_concepts[spec.name] == [spec.concept]

    def test_pruned_selection_avoids_excluded_concepts(self, bundle, fmd_classes):
        pruned = bundle.pruned(fmd_classes, level=0)
        selection = pruned.select(fmd_classes, num_related_concepts=3,
                                  images_per_concept=2,
                                  rng=np.random.default_rng(0))
        excluded = pruned.scads.excluded_concepts
        assert not set(selection.concepts) & excluded

    def test_invalid_parameters(self, bundle, fmd_classes):
        with pytest.raises(ValueError):
            select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                  num_related_concepts=0)
        with pytest.raises(ValueError):
            select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                  images_per_concept=0)

    def test_selection_is_deterministic_given_rng(self, bundle, fmd_classes):
        a = select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                  num_related_concepts=2, images_per_concept=3,
                                  rng=np.random.default_rng(7))
        b = select_auxiliary_data(bundle.scads, bundle.embedding, fmd_classes,
                                  num_related_concepts=2, images_per_concept=3,
                                  rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.features, b.features)
        assert a.concepts == b.concepts


class TestTargetClassVector:
    def test_in_vocabulary_class(self, bundle, fmd_classes):
        vector = target_class_vector(fmd_classes[0], bundle.scads, bundle.embedding)
        np.testing.assert_allclose(
            vector, bundle.embedding.get_vector(fmd_classes[0].concept))

    def test_oov_class_with_added_node(self, tiny_workspace):
        grocery = tiny_workspace.dataset("grocery_store")
        oov = [c for c in grocery.classes if c.name == "oatghurt"][0]
        vector = target_class_vector(oov, tiny_workspace.scads.scads,
                                     tiny_workspace.scads.embedding)
        assert vector is not None and np.isfinite(vector).all()

    def test_unmatchable_class_returns_none(self, bundle):
        spec = ClassSpec(name="zq", concept=None, anchors=("plastic",))
        assert target_class_vector(spec, bundle.scads, bundle.embedding) is None


class TestAuxiliarySelectionContainer:
    def test_empty_helpers(self):
        from repro.scads import AuxiliarySelection

        empty = AuxiliarySelection(features=np.zeros((0, 4)),
                                   labels=np.zeros(0, dtype=np.int64), concepts=[])
        assert empty.is_empty()
        assert len(empty) == 0
        assert empty.num_aux_classes == 0
