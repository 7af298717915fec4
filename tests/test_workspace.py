"""Tests for the workspace assembly."""

import pytest

from repro.datasets import DATASET_BUILDERS
from repro.workspace import WorkspaceSpec, build_workspace


class TestWorkspace:
    def test_tiny_workspace_is_complete(self, tiny_workspace):
        assert len(tiny_workspace.graph) > 0
        assert tiny_workspace.scads.scads.concepts_with_images()
        assert set(DATASET_BUILDERS) == {
            "fmd", "officehome_product", "officehome_clipart", "grocery_store",
            "cifar_demo"}

    def test_shared_embeddings_between_world_and_scads(self, tiny_workspace):
        """The world's semantic component and SCADS embeddings come from the
        same concept vectors (the key coupling for the reproduction)."""
        assert "plastic" in tiny_workspace.text_embeddings
        assert "plastic" in tiny_workspace.scads.embedding

    def test_oov_grocery_classes_aligned_on_demand(self, tiny_workspace):
        tiny_workspace.dataset("grocery_store")
        assert "oatghurt" in tiny_workspace.scads.scads.graph
        assert "oatghurt" in tiny_workspace.scads.embedding

    def test_make_task_split_shapes(self, tiny_workspace):
        split = tiny_workspace.make_task_split("officehome_product", shots=1,
                                               split_seed=1)
        assert split.shots == 1
        assert split.split_seed == 1
        assert len(split.labeled_features) == 65

    def test_build_workspace_scale_validation(self):
        with pytest.raises(ValueError):
            build_workspace(scale="gigantic")

    def test_spec_presets(self):
        small = WorkspaceSpec.small(seed=1)
        full = WorkspaceSpec.full(seed=1)
        assert full.graph.num_filler_concepts > small.graph.num_filler_concepts
        assert small.seed == 1
