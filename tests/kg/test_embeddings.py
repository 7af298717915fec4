"""Tests for concept embeddings and retrofitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import (KnowledgeGraph, Relation, generate_text_embeddings,
                      normalize_rows, retrofit)


def cosine_similarity(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def chain_graph(n=5):
    graph = KnowledgeGraph()
    for i in range(n - 1):
        graph.add_edge(f"c{i + 1}", f"c{i}", relation=Relation.IS_A)
    return graph


class TestTextEmbeddings:
    def test_children_closer_to_parent_than_to_strangers(self):
        graph = KnowledgeGraph()
        graph.add_edge("dog", "animal", relation=Relation.IS_A)
        graph.add_edge("cat", "animal", relation=Relation.IS_A)
        graph.add_edge("rock", "mineral", relation=Relation.IS_A)
        embeddings = generate_text_embeddings(graph, dim=32, seed=0)
        dog_animal = cosine_similarity(embeddings["dog"], embeddings["animal"])
        dog_rock = cosine_similarity(embeddings["dog"], embeddings["rock"])
        assert dog_animal > dog_rock

    def test_all_concepts_embedded(self):
        graph = chain_graph(6)
        graph.add_concept("isolated")
        embeddings = generate_text_embeddings(graph, dim=16, seed=0)
        assert set(embeddings) == set(graph.concepts)

    def test_deterministic(self):
        graph = chain_graph(4)
        a = generate_text_embeddings(graph, dim=8, seed=5)
        b = generate_text_embeddings(graph, dim=8, seed=5)
        for concept in graph.concepts:
            np.testing.assert_allclose(a[concept], b[concept])

    def test_invalid_inheritance(self):
        with pytest.raises(ValueError):
            generate_text_embeddings(chain_graph(3), inheritance=1.0)


class TestRetrofit:
    def test_no_iterations_returns_originals(self):
        graph = chain_graph(4)
        text = generate_text_embeddings(graph, dim=8, seed=0)
        retro = retrofit(graph, text, iterations=0)
        for concept in graph.concepts:
            np.testing.assert_allclose(retro[concept], text[concept])

    def test_pulls_neighbours_together(self):
        graph = KnowledgeGraph()
        graph.add_edge("a", "b", relation=Relation.RELATED_TO)
        rng = np.random.default_rng(0)
        text = {"a": rng.normal(size=8), "b": rng.normal(size=8)}
        retro = retrofit(graph, text, iterations=5)
        before = np.linalg.norm(text["a"] - text["b"])
        after = np.linalg.norm(retro["a"] - retro["b"])
        assert after < before

    def test_oov_concept_gets_neighbour_average(self):
        graph = KnowledgeGraph()
        graph.add_edge("new_thing", "a", relation=Relation.RELATED_TO)
        graph.add_edge("new_thing", "b", relation=Relation.RELATED_TO)
        text = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        retro = retrofit(graph, text, iterations=10)
        np.testing.assert_allclose(retro["new_thing"], [0.5, 0.5], atol=0.2)

    def test_keeps_identity_anchor(self):
        # With degree normalization, a concept keeps a meaningful share of its
        # own text vector even when it has many neighbours.
        graph = KnowledgeGraph()
        for i in range(20):
            graph.add_edge("hub", f"n{i}", relation=Relation.RELATED_TO)
        rng = np.random.default_rng(0)
        text = {c: rng.normal(size=16) for c in graph.concepts}
        retro = retrofit(graph, text, iterations=10)
        assert cosine_similarity(retro["hub"], text["hub"]) > 0.4

    def test_inconsistent_dimensions_rejected(self):
        graph = chain_graph(3)
        with pytest.raises(ValueError):
            retrofit(graph, {"c0": np.zeros(3), "c1": np.zeros(4)})

    def test_empty_graph(self):
        assert retrofit(KnowledgeGraph(), {}) == {}

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            retrofit(chain_graph(3), {}, iterations=-1)


class TestNormalizeRows:
    def test_unit_norms(self):
        rows = normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.linalg.norm(rows[0]), 1.0)
        np.testing.assert_allclose(rows[1], [0.0, 0.0])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6))
def test_property_retrofit_preserves_concept_set(n_chain, iterations):
    graph = chain_graph(n_chain)
    text = generate_text_embeddings(graph, dim=8, seed=0)
    retro = retrofit(graph, text, iterations=iterations)
    assert set(retro) == set(graph.concepts)
    for vector in retro.values():
        assert np.isfinite(vector).all()
