"""SCADS embeddings: retrofitted concept vectors with OOV approximation.

The SCADS embedding of a concept expresses both the knowledge-graph topology
and the text-derived word vector (paper Appendix A.1).  Target classes that
are not concepts of the graph get an approximated embedding: a weighted
average of the embeddings of terms sharing the longest possible prefix
(paper Section 3.1), or — if the class was added as a new node — the
retrofitted vector computed from its neighbours alone.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..kg.embeddings import generate_text_embeddings, retrofit
from ..kg.graph import KnowledgeGraph
from ..kg.similarity import EmbeddingIndex

__all__ = ["ScadsEmbedding"]


class ScadsEmbedding:
    """Concept vectors for SCADS queries.

    Parameters
    ----------
    graph:
        The SCADS knowledge graph.
    text_embeddings:
        Optional pre-computed word vectors; generated from the graph when
        omitted (the synthetic stand-in for word2vec).
    dim:
        Dimension of generated text embeddings.
    retrofit_iterations:
        Sweeps of the expanded-retrofitting update.
    """

    def __init__(self, graph: KnowledgeGraph,
                 text_embeddings: Optional[Mapping[str, np.ndarray]] = None,
                 dim: int = 64, retrofit_iterations: int = 8, seed: int = 0):
        self.graph = graph
        if text_embeddings is None:
            text_embeddings = generate_text_embeddings(graph, dim=dim, seed=seed)
        self._vectors: Dict[str, np.ndarray] = retrofit(
            graph, text_embeddings, iterations=retrofit_iterations)
        if not self._vectors:
            raise ValueError("the knowledge graph has no concepts to embed")
        self.dim = len(next(iter(self._vectors.values())))
        self._index = EmbeddingIndex(self._vectors)

    # ------------------------------------------------------------------ #
    # Vectors
    # ------------------------------------------------------------------ #
    def __contains__(self, concept: str) -> bool:
        try:
            return KnowledgeGraph.normalize(concept) in self._vectors
        except ValueError:
            return False

    def concepts(self) -> List[str]:
        return list(self._vectors.keys())

    def get_vector(self, concept: str, allow_approximation: bool = True) -> np.ndarray:
        """Return the SCADS embedding of ``concept``.

        Falls back to the longest-prefix approximation for terms that are not
        concepts of the graph (paper Section 3.1), raising ``KeyError`` only
        when approximation is disabled or no prefix match exists.
        """
        normalized = KnowledgeGraph.normalize(concept)
        if normalized in self._vectors:
            return self._vectors[normalized].copy()
        if not allow_approximation:
            raise KeyError(f"concept {concept!r} has no SCADS embedding")
        approximation = self.approximate_vector(normalized)
        if approximation is None:
            raise KeyError(f"concept {concept!r} has no SCADS embedding and no "
                           "prefix-based approximation is possible")
        return approximation

    def approximate_vector(self, term: str) -> Optional[np.ndarray]:
        """Longest-shared-prefix approximation ``ê_q ≈ sum_j w_j e_j``.

        ``P`` is the set of concepts sharing the longest possible prefix with
        the term; each gets weight ``1/|P|`` (paper Section 3.1).
        """
        term = KnowledgeGraph.normalize(term)
        best_len = 0
        members: List[str] = []
        for concept in self._vectors:
            shared = _common_prefix_length(term, concept)
            if shared > best_len:
                best_len = shared
                members = [concept]
            elif shared == best_len and shared > 0:
                members.append(concept)
        if best_len < 3 or not members:
            # Require a meaningful shared prefix; single characters match noise.
            return None
        weights = np.full(len(members), 1.0 / len(members))
        stacked = np.stack([self._vectors[c] for c in members])
        return np.average(stacked, axis=0, weights=weights)

    def register_vector(self, concept: str, vector: np.ndarray) -> None:
        """Register an explicit vector for a concept (e.g. a newly added node)."""
        concept = KnowledgeGraph.normalize(concept)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector must have shape ({self.dim},)")
        self._vectors[concept] = vector
        self._index = EmbeddingIndex(self._vectors)

    def compute_node_vector(self, concept: str) -> np.ndarray:
        """Vector for a node already added to the graph: average of neighbours.

        Equivalent to one retrofitting update with ``alpha = 0``, which is how
        the paper handles concepts without text embeddings.
        """
        concept = KnowledgeGraph.normalize(concept)
        neighbor_vectors = [self._vectors[n] for n, _, _ in self.graph.neighbors(concept)
                            if n in self._vectors]
        if not neighbor_vectors:
            raise KeyError(f"node {concept!r} has no embedded neighbours")
        return np.mean(neighbor_vectors, axis=0)

    # ------------------------------------------------------------------ #
    # Similarity queries
    # ------------------------------------------------------------------ #
    def related_concepts_batch(self, queries: Sequence[np.ndarray], top_k: int,
                               candidates: Optional[Sequence[str]] = None
                               ) -> List[List[Tuple[str, float]]]:
        """Top-k related concepts for many query vectors at once.

        Builds the candidate index a single time and scores every query in
        one ``(q, d) @ (d, n)`` matrix multiply — the batched form of the
        per-target-class similarity queries in auxiliary-data selection.
        """
        queries = [np.asarray(q, dtype=np.float64) for q in queries]
        if not queries:
            return []
        index = self._candidate_index(candidates)
        if index is None:
            return [[] for _ in queries]
        return index.top_k_batch(np.stack(queries), top_k)

    def _candidate_index(self,
                         candidates: Optional[Sequence[str]]) -> Optional[EmbeddingIndex]:
        if candidates is None:
            return self._index
        subset = {c: self._vectors[c] for c in candidates if c in self._vectors}
        if not subset:
            return None
        return EmbeddingIndex(subset)


def _common_prefix_length(a: str, b: str) -> int:
    length = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b:
            break
        length += 1
    return length
