"""Tests for semantic-tree pruning (paper Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import (KnowledgeGraph, PRUNE_LEVEL_0, PRUNE_LEVEL_1, PRUNE_NONE,
                      Relation, pruned_concepts)
from repro.scads import Scads


@pytest.fixture()
def tree():
    graph = KnowledgeGraph()
    graph.add_edge("material", "entity", relation=Relation.IS_A)
    graph.add_edge("plastic", "material", relation=Relation.IS_A)
    graph.add_edge("stone", "material", relation=Relation.IS_A)
    graph.add_edge("cling_film", "plastic", relation=Relation.IS_A)
    graph.add_edge("cellophane", "plastic", relation=Relation.IS_A)
    graph.add_edge("marble", "stone", relation=Relation.IS_A)
    graph.add_edge("keyboard", "entity", relation=Relation.IS_A)
    return graph


class TestPrunedConcepts:
    def test_level_0_removes_class_and_descendants(self, tree):
        removed = pruned_concepts(tree, "plastic", PRUNE_LEVEL_0)
        assert removed == {"plastic", "cling_film", "cellophane"}

    def test_level_1_also_removes_parent_subtree(self, tree):
        removed = pruned_concepts(tree, "plastic", PRUNE_LEVEL_1)
        assert removed == {"plastic", "cling_film", "cellophane", "material",
                           "stone", "marble"}

    def test_unknown_class_prunes_nothing(self, tree):
        assert pruned_concepts(tree, "oatghurt", PRUNE_LEVEL_0) == set()

    def test_invalid_level(self, tree):
        with pytest.raises(ValueError):
            pruned_concepts(tree, "plastic", 2)

    def test_leaf_level_0_removes_only_the_leaf(self, tree):
        assert pruned_concepts(tree, "marble", PRUNE_LEVEL_0) == {"marble"}

    def test_level_1_under_the_root_removes_the_whole_tree(self, tree):
        assert pruned_concepts(tree, "keyboard", PRUNE_LEVEL_1) == set(tree.concepts)

    def test_root_has_no_parent_so_level_1_equals_level_0(self, tree):
        assert (pruned_concepts(tree, "entity", PRUNE_LEVEL_1)
                == pruned_concepts(tree, "entity", PRUNE_LEVEL_0)
                == set(tree.concepts))

    def test_target_names_are_normalized(self, tree):
        assert pruned_concepts(tree, " Cling Film ", PRUNE_LEVEL_0) == {"cling_film"}

    def test_level_0_is_contained_in_level_1(self, tree):
        for concept in tree.concepts:
            level_0 = pruned_concepts(tree, concept, PRUNE_LEVEL_0)
            assert concept in level_0
            assert level_0 <= pruned_concepts(tree, concept, PRUNE_LEVEL_1)


class TestPrunedView:
    """Prune levels applied through ``Scads.pruned`` over a SCADS that has
    images on every concept of the tree."""

    @pytest.fixture()
    def scads(self, tree):
        scads = Scads(tree)
        scads.install_dataset("all", {c: np.zeros((1, 2)) for c in tree.concepts})
        return scads

    def test_no_pruning_excludes_nothing(self, scads, tree):
        pruned = scads.pruned(["plastic"], PRUNE_NONE)
        assert pruned.excluded_concepts == set()
        assert pruned.graph is tree
        assert set(pruned.concepts_with_images()) == set(tree.concepts)

    def test_level_0_keeps_siblings(self, scads):
        pruned = scads.pruned(["plastic"], PRUNE_LEVEL_0)
        assert not pruned.has_images("plastic")
        assert pruned.has_images("stone")
        assert pruned.has_images("keyboard")

    def test_level_1_keeps_unrelated_branches(self, scads):
        pruned = scads.pruned(["plastic"], PRUNE_LEVEL_1)
        assert not pruned.has_images("stone")
        assert pruned.has_images("keyboard")
        assert pruned.has_images("entity")

    def test_multiple_target_classes(self, scads):
        pruned = scads.pruned(["plastic", "stone"], PRUNE_LEVEL_0)
        assert not pruned.has_images("plastic") and not pruned.has_images("stone")
        assert pruned.has_images("material")
        assert "plastic" in pruned.graph

    def test_pruning_a_pruned_view_accumulates(self, scads):
        pruned = scads.pruned(["plastic"], PRUNE_LEVEL_0).pruned(
            ["marble"], PRUNE_LEVEL_0)
        assert pruned.excluded_concepts == {"plastic", "cling_film",
                                            "cellophane", "marble"}

    def test_no_pruning_keeps_earlier_exclusions(self, scads):
        pruned = scads.pruned(["stone"], PRUNE_LEVEL_0)
        assert pruned.pruned(["plastic"], PRUNE_NONE).excluded_concepts == {
            "stone", "marble"}

    def test_excluded_images_are_unreachable(self, scads):
        pruned = scads.pruned(["plastic"], PRUNE_LEVEL_0)
        assert "cling_film" not in pruned.concepts_with_images()
        with pytest.raises(KeyError):
            pruned.get_images("cling_film")
        assert len(scads.get_images("cling_film")) == 1

    def test_invalid_level_rejected(self, scads):
        with pytest.raises(ValueError):
            scads.pruned(["plastic"], 2)

    def test_unknown_targets_beside_known_ones(self, scads):
        pruned = scads.pruned(["oatghurt", "Marble"], PRUNE_LEVEL_0)
        assert pruned.excluded_concepts == {"marble"}

    def test_excluded_concepts_is_a_copy(self, scads):
        pruned = scads.pruned(["marble"], PRUNE_LEVEL_0)
        pruned.excluded_concepts.add("keyboard")
        assert pruned.has_images("keyboard")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=12),
       st.lists(st.integers(0, 12), min_size=1, max_size=3),
       st.sampled_from([PRUNE_LEVEL_0, PRUNE_LEVEL_1]))
def test_property_pruned_view_hides_exactly_the_pruned_concepts(
        parents, targets, level):
    # node i+1 hangs under a node numbered at most i: a random tree rooted at n0
    graph = KnowledgeGraph()
    for child, parent in enumerate(parents, start=1):
        graph.add_edge(f"n{child}", f"n{min(parent, child - 1)}",
                       relation=Relation.IS_A)
    scads = Scads(graph)
    scads.install_dataset("all", {c: np.zeros((1, 2)) for c in graph.concepts})
    names = [f"n{t}" for t in targets]
    hidden = set().union(*(pruned_concepts(graph, n, level) for n in names))
    pruned = scads.pruned(names, level)
    assert pruned.excluded_concepts == hidden
    assert set(pruned.concepts_with_images()) == set(graph.concepts) - hidden
