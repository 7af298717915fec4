"""Tests for SCADS embeddings (retrofitted vectors + OOV approximation)."""

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, Relation
from repro.scads import ScadsEmbedding


def build_graph():
    graph = KnowledgeGraph()
    graph.add_edge("material", "entity", relation=Relation.IS_A)
    graph.add_edge("plastic", "material", relation=Relation.IS_A)
    graph.add_edge("plastic_bag", "plastic", relation=Relation.IS_A)
    graph.add_edge("plastic_wrap", "plastic", relation=Relation.IS_A)
    graph.add_edge("stone", "material", relation=Relation.IS_A)
    graph.add_edge("yoghurt", "entity", relation=Relation.IS_A)
    graph.add_edge("carton", "entity", relation=Relation.IS_A)
    return graph


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(scope="module")
def embedding(graph):
    return ScadsEmbedding(graph, dim=16, seed=0)


class TestVectors:
    def test_contains_and_get(self, embedding):
        assert "plastic" in embedding
        vector = embedding.get_vector("plastic")
        assert vector.shape == (16,)
        assert np.isfinite(vector).all()

    def test_get_vector_copies(self, embedding):
        first = embedding.get_vector("plastic")
        first[:] = 0.0
        assert not np.allclose(embedding.get_vector("plastic"), 0.0)

    def test_unknown_without_approximation(self, embedding):
        with pytest.raises(KeyError):
            embedding.get_vector("zzz_unknown", allow_approximation=False)

    def test_prefix_approximation(self, embedding):
        # "plastic_box" is not a concept, but shares a long prefix with
        # plastic / plastic_bag / plastic_wrap.
        approx = embedding.get_vector("plastic_box")
        reference = embedding.get_vector("plastic_bag")
        cosine = float(approx @ reference
                       / (np.linalg.norm(approx) * np.linalg.norm(reference)))
        assert cosine > 0.5

    def test_no_prefix_match_raises(self, embedding):
        with pytest.raises(KeyError):
            embedding.get_vector("xq")

    def test_register_vector(self, graph):
        embedding = ScadsEmbedding(graph, dim=16, seed=0)
        embedding.register_vector("new_node", np.ones(16))
        np.testing.assert_allclose(embedding.get_vector("new_node"), np.ones(16))
        with pytest.raises(ValueError):
            embedding.register_vector("bad", np.ones(4))

    def test_compute_node_vector_is_neighbour_average(self, graph):
        extended = build_graph()
        extended.add_edge("oatghurt", "yoghurt", relation=Relation.RELATED_TO)
        extended.add_edge("oatghurt", "carton", relation=Relation.RELATED_TO)
        embedding = ScadsEmbedding(graph, dim=16, seed=0)
        embedding.graph = extended
        vector = embedding.compute_node_vector("oatghurt")
        expected = (embedding.get_vector("yoghurt") + embedding.get_vector("carton")) / 2
        np.testing.assert_allclose(vector, expected)


def related(embedding, concept, top_k, candidates=None):
    [ranked] = embedding.related_concepts_batch(
        [embedding.get_vector(concept)], top_k=top_k, candidates=candidates)
    return ranked


class TestRelatedConcepts:
    def test_related_concepts_returns_graph_neighbourhood(self, embedding):
        names = [c for c, _ in related(embedding, "plastic", top_k=4)]
        assert "plastic_bag" in names or "plastic_wrap" in names

    def test_candidates_restriction(self, embedding):
        ranked = related(embedding, "plastic", top_k=5,
                         candidates=["stone", "yoghurt"])
        assert {c for c, _ in ranked} == {"stone", "yoghurt"}

    def test_query_by_vector(self, embedding):
        assert related(embedding, "plastic", top_k=1)[0][0] == "plastic"

    def test_empty_candidates(self, embedding):
        assert related(embedding, "plastic", top_k=3, candidates=["nope"]) == []

    def test_scores_sorted_descending(self, embedding):
        scores = [s for _, s in related(embedding, "plastic", top_k=5)]
        assert len(scores) == 5
        assert scores == sorted(scores, reverse=True)

    def test_unknown_candidates_are_ignored(self, embedding):
        ranked = related(embedding, "plastic", top_k=5,
                         candidates=["stone", "nope", "carton"])
        assert {c for c, _ in ranked} == {"stone", "carton"}

    def test_no_queries(self, embedding):
        assert embedding.related_concepts_batch([], top_k=3) == []

    def test_batch_rows_match_single_queries(self, embedding):
        concepts = ["plastic", "stone", "yoghurt"]
        batch = embedding.related_concepts_batch(
            [embedding.get_vector(c) for c in concepts], top_k=4)
        for concept, ranked in zip(concepts, batch):
            single = related(embedding, concept, top_k=4)
            assert [c for c, _ in ranked] == [c for c, _ in single]
            assert [s for _, s in ranked] == pytest.approx([s for _, s in single])
