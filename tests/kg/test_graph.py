"""Tests for the knowledge-graph data structure."""

import pytest

from repro.kg import KnowledgeGraph, Relation


@pytest.fixture()
def small_graph():
    graph = KnowledgeGraph()
    graph.add_edge("material", "entity", relation=Relation.IS_A)
    graph.add_edge("plastic", "material", relation=Relation.IS_A)
    graph.add_edge("cling_film", "plastic", relation=Relation.IS_A)
    graph.add_edge("plastic_bag", "plastic", relation=Relation.IS_A)
    graph.add_edge("stone", "material", relation=Relation.IS_A)
    graph.add_edge("plastic", "recycling_bin", relation=Relation.RELATED_TO,
                   weight=2.0)
    return graph


class TestConstruction:
    def test_normalization(self):
        assert KnowledgeGraph.normalize("Cling Film") == "cling_film"
        assert KnowledgeGraph.normalize("  desk-lamp ") == "desk_lamp"
        with pytest.raises(ValueError):
            KnowledgeGraph.normalize("  ")

    def test_add_concept_idempotent(self):
        graph = KnowledgeGraph()
        graph.add_concept("apple")
        graph.add_concept("Apple")
        assert len(graph) == 1

    def test_self_loop_rejected(self):
        graph = KnowledgeGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "a")

    def test_unknown_relation_rejected(self):
        graph = KnowledgeGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", relation="Likes")

    def test_nonpositive_weight_rejected(self):
        graph = KnowledgeGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", weight=0.0)


class TestQueries:
    def test_contains_and_len(self, small_graph):
        assert "plastic" in small_graph
        assert "Cling Film" in small_graph
        assert "unknown" not in small_graph
        assert len(small_graph) == 7

    def test_neighbors_with_relation_filter(self, small_graph):
        lateral = small_graph.neighbors("plastic", relations=Relation.LATERAL)
        assert [n for n, _, _ in lateral] == ["recycling_bin"]
        all_neighbors = [n for n, _, _ in small_graph.neighbors("plastic")]
        assert set(all_neighbors) == {"material", "cling_film", "plastic_bag",
                                      "recycling_bin"}

    def test_neighbors_unknown_concept(self, small_graph):
        with pytest.raises(KeyError):
            small_graph.neighbors("nonexistent")

    def test_hierarchy_queries(self, small_graph):
        assert small_graph.parent("plastic") == "material"
        assert small_graph.parent("entity") is None
        assert set(small_graph.children("plastic")) == {"cling_film", "plastic_bag"}
        assert small_graph.descendants("material") == {
            "plastic", "stone", "cling_film", "plastic_bag"}
        assert small_graph.roots() == ["entity"] or "entity" in small_graph.roots()

    def test_every_edge_listed_at_both_endpoints(self, small_graph):
        listed = [(u, v, relation, weight) for u in small_graph.concepts
                  for v, relation, weight in small_graph.neighbors(u)]
        assert len(listed) == 2 * 6
        assert all((u, relation, weight) in small_graph.neighbors(v)
                   for u, v, relation, weight in listed)


def order_graph():
    """Edges added in an order that differs from the concept order."""
    graph = KnowledgeGraph()
    graph.add_edge("b", "c")
    graph.add_edge("a", "c", relation=Relation.USED_FOR)
    graph.add_edge("a", "b", relation=Relation.IS_A)
    graph.add_edge("d", "a", relation=Relation.IS_A)
    graph.add_edge("d", "c", relation=Relation.IS_A)
    graph.add_edge("e", "b")
    graph.add_edge("d", "b", weight=2.0)
    return graph


def layout(graph):
    return {concept: ([n for n, _, _ in graph.neighbors(concept)],
                      graph.children(concept), graph.parent(concept))
            for concept in graph.concepts}


class TestInsertionOrder:
    """Concepts keep their insertion order and each neighbour list the order
    its edges were first added; retrofitting, the ZSL-KG node descriptions
    and backbone pretraining read that order."""

    def test_original_keeps_insertion_order(self):
        graph = order_graph()
        assert graph.concepts == ["b", "c", "a", "d", "e"]
        assert layout(graph) == {
            "b": (["c", "a", "e", "d"], ["a"], None),
            "c": (["b", "a", "d"], ["d"], None),
            "a": (["c", "b", "d"], ["d"], "b"),
            "d": (["a", "c", "b"], [], "a"),
            "e": (["b"], [], None),
        }
