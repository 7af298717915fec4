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
        all_neighbors = small_graph.neighbor_names("plastic")
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
        assert small_graph.ancestors("cling_film") == ["plastic", "material", "entity"]
        assert small_graph.roots() == ["entity"] or "entity" in small_graph.roots()

    def test_shortest_path(self, small_graph):
        assert small_graph.shortest_path_length("cling_film", "stone") == 3

    def test_shortest_path_needs_a_path_and_known_concepts(self, small_graph):
        small_graph.add_concept("island")
        with pytest.raises(ValueError):
            small_graph.shortest_path_length("island", "stone")
        with pytest.raises(KeyError):
            small_graph.shortest_path_length("atlantis", "stone")

    def test_edges_iterator(self, small_graph):
        edges = list(small_graph.edges())
        assert len(edges) == small_graph.num_edges()
        assert all(len(edge) == 4 for edge in edges)

    def test_degree(self, small_graph):
        assert small_graph.degree("plastic") == 4


class TestMutation:
    def test_remove_concepts(self, small_graph):
        removed = small_graph.remove_concepts(["plastic", "not_there"])
        assert removed == 1
        assert "plastic" not in small_graph
        # Children survive but lose their parent edge.
        assert "cling_film" in small_graph
        assert small_graph.parent("cling_film") is None

    def test_copy_is_independent(self, small_graph):
        duplicate = small_graph.copy()
        duplicate.remove_concepts(["plastic"])
        assert "plastic" in small_graph

    def test_subgraph(self, small_graph):
        sub = small_graph.subgraph(["plastic", "cling_film", "stone"])
        assert len(sub) == 3
        assert sub.children("plastic") == ["cling_film"]



def order_graph():
    """Edges added so that re-adding them node by node reorders some lists."""
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
    return {concept: (graph.neighbor_names(concept), graph.children(concept),
                      graph.parent(concept))
            for concept in graph.concepts}


class TestCopyOrder:
    """``copy()``/``subgraph()`` re-add edges concept by concept, neighbour by
    neighbour; the lists below are the order that rule gives (and the order
    the previous networkx-backed graph gave), which pruned copies feed to
    retrofitting and the ZSL-KG node descriptions."""

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

    def test_copy_reorders_like_re_adding_edges(self):
        duplicate = order_graph().copy()
        assert duplicate.concepts == ["b", "c", "a", "d", "e"]
        assert layout(duplicate) == {
            "b": (["c", "a", "e", "d"], ["a"], None),
            "c": (["b", "a", "d"], ["d"], None),
            "a": (["b", "c", "d"], ["d"], "b"),
            "d": (["b", "c", "a"], [], "c"),
            "e": (["b"], [], None),
        }
        assert duplicate.roots() == ["b", "c", "e"]
        assert duplicate.neighbors("d")[0] == ("b", Relation.RELATED_TO, 2.0)

    def test_subgraph_keeps_graph_order(self):
        sub = order_graph().subgraph(["d", "c", "b", "a"])
        assert sub.concepts == ["b", "c", "a", "d"]
        assert layout(sub) == {
            "b": (["c", "a", "d"], ["a"], None),
            "c": (["b", "a", "d"], ["d"], None),
            "a": (["b", "c", "d"], ["d"], "b"),
            "d": (["b", "c", "a"], [], "c"),
        }
        assert sub.num_edges() == 6

    def test_copy_of_a_copy_is_stable(self):
        once = order_graph().copy()
        assert layout(once.copy()) == layout(once)
        assert list(once.copy().edges()) == list(once.edges())
