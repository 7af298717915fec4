"""Tests for the procedural ConceptNet generator."""

import pytest

from repro.kg import GraphSpec, Relation, build_concept_graph
from repro.kg import vocabulary as vocab


@pytest.fixture(scope="module")
def graph():
    return build_concept_graph(GraphSpec(num_filler_concepts=200, seed=0))


class TestCoverage:
    def test_all_target_classes_present(self, graph):
        for cls in vocab.FMD_CLASSES + vocab.OFFICE_HOME_CLASSES + vocab.GROCERY_CLASSES:
            assert cls in graph, f"target class {cls} missing from the graph"

    def test_oov_grocery_classes_absent(self, graph):
        for cls in vocab.GROCERY_OOV_CLASSES:
            assert cls not in graph

    def test_oov_anchor_concepts_present(self, graph):
        for anchors in vocab.GROCERY_OOV_ANCHORS.values():
            for anchor in anchors:
                assert anchor in graph

    def test_figure4_plastic_neighbourhood(self, graph):
        children = set(graph.children("plastic"))
        # The closely-related plastic concepts of the paper's Figure 4.
        for expected in ["cling_film", "plastic_bag", "cellophane"]:
            assert expected in children

    def test_class_counts_match_paper(self):
        assert len(vocab.FMD_CLASSES) == 10
        assert len(vocab.OFFICE_HOME_CLASSES) == 65
        assert len(vocab.GROCERY_CLASSES) + len(vocab.GROCERY_OOV_CLASSES) == 42


class TestStructure:
    def test_filler_haystack_size(self, graph):
        fillers = [c for c in graph.concepts if c.startswith("filler_")]
        assert len(fillers) == 200

    def test_every_target_class_has_lateral_cousins(self, graph):
        """Prune level 0 must leave each class some related (non-descendant) concepts."""
        for cls in vocab.FMD_CLASSES:
            descendants = graph.descendants(cls)
            lateral = [n for n, rel, _ in graph.neighbors(cls)
                       if rel == Relation.RELATED_TO and n not in descendants]
            assert lateral, f"{cls} has no lateral relatives surviving prune level 0"

    def test_single_root(self, graph):
        roots = graph.roots()
        assert "entity" in roots

    def test_deterministic_given_seed(self):
        a = build_concept_graph(GraphSpec(num_filler_concepts=50, seed=3))
        b = build_concept_graph(GraphSpec(num_filler_concepts=50, seed=3))
        assert sorted(a.concepts) == sorted(b.concepts)
        assert [a.neighbors(c) for c in a.concepts] \
            == [b.neighbors(c) for c in b.concepts]

    def test_different_seed_changes_cross_links(self):
        a = build_concept_graph(GraphSpec(num_filler_concepts=50, seed=1))
        b = build_concept_graph(GraphSpec(num_filler_concepts=50, seed=2))
        def edges(graph):
            return {frozenset((u, v)) for u in graph.concepts
                    for v, _, _ in graph.neighbors(u)}
        assert edges(a) != edges(b)
