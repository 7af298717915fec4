"""Tests for embedding similarity queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kg import EmbeddingIndex


class TestEmbeddingIndex:
    @pytest.fixture()
    def index(self):
        return EmbeddingIndex({
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.9, 0.1]),
            "c": np.array([0.0, 1.0]),
            "d": np.array([-1.0, 0.0]),
        })

    def test_top_k_order(self, index):
        [results] = index.top_k_batch(np.array([[1.0, 0.0]]), k=3)
        assert [name for name, _ in results] == ["a", "b", "c"]
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_one_result_list_per_query(self, index):
        results = index.top_k_batch(np.array([[1.0, 0.0], [0.0, 2.0]]), k=1)
        assert [[name for name, _ in row] for row in results] == [["a"], ["c"]]

    def test_k_zero_and_zero_query(self, index):
        assert index.top_k_batch(np.array([[1.0, 0.0]]), k=0) == [[]]
        assert index.top_k_batch(np.array([[0.0, 0.0], [1.0, 0.0]]), k=1) == [
            [], [("a", pytest.approx(1.0))]]

    def test_k_larger_than_index(self, index):
        [results] = index.top_k_batch(np.array([[0.0, 1.0]]), k=10)
        assert len(results) == 4

    def test_queries_must_be_a_matrix(self, index):
        with pytest.raises(ValueError):
            index.top_k_batch(np.array([1.0, 0.0]), k=1)

    def test_contains_and_len(self, index):
        assert "a" in index and "zzz" not in index
        assert len(index) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingIndex({})

    def test_scores_are_cosines(self, index):
        [results] = index.top_k_batch(np.array([[1.0, 1.0]]), k=4)
        expected = {"a": 1 / np.sqrt(2), "b": 1.0 / np.sqrt(2 * 0.82),
                    "c": 1 / np.sqrt(2), "d": -1 / np.sqrt(2)}
        assert dict(results) == pytest.approx(expected)

    def test_query_scale_does_not_change_results(self, index):
        unit, scaled = index.top_k_batch(np.array([[0.3, 0.4], [30.0, 40.0]]), k=4)
        assert [c for c, _ in unit] == [c for c, _ in scaled]
        assert [s for _, s in unit] == pytest.approx([s for _, s in scaled])

    def test_empty_batch(self, index):
        assert index.top_k_batch(np.zeros((0, 2)), k=3) == []

    def test_negative_k_yields_empty_lists(self, index):
        assert index.top_k_batch(np.eye(2), k=-1) == [[], []]

    def test_concepts_are_sorted_whatever_the_insertion_order(self):
        index = EmbeddingIndex({"z": np.ones(2), "a": np.ones(2), "m": np.ones(2)})
        assert index.concepts == ["a", "m", "z"]

    def test_dimension_mismatch_rejected(self, index):
        with pytest.raises(ValueError):
            index.top_k_batch(np.ones((1, 3)), k=1)


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.just(3)),
                  elements=st.floats(0.1, 5)),
       hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(3)),
                  elements=st.floats(-5, 5)),
       st.integers(1, 12))
def test_property_top_k_batch_matches_brute_force(vectors, queries, k):
    index = EmbeddingIndex({f"c{i}": v for i, v in enumerate(vectors)})
    results = index.top_k_batch(queries, k)
    assert len(results) == len(queries)
    for query, ranked in zip(queries, results):
        if not np.linalg.norm(query):
            assert ranked == []
            continue
        unit = query / np.linalg.norm(query)
        cosines = {c: float(vectors[int(c[1:])] @ unit
                            / np.linalg.norm(vectors[int(c[1:])]))
                   for c in index.concepts}
        assert len(ranked) == min(k, len(vectors))
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        for concept, score in ranked:
            assert score == pytest.approx(cosines[concept], abs=1e-9)
        # nothing left out scores above the worst concept kept
        kept = {c for c, _ in ranked}
        assert all(cosines[c] <= scores[-1] + 1e-9
                   for c in cosines if c not in kept)
