"""Graph-embedding similarity queries used by SCADS auxiliary-data selection."""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from .embeddings import normalize_rows

__all__ = ["EmbeddingIndex"]


class EmbeddingIndex:
    """Dense index over concept embeddings supporting top-k cosine queries."""

    def __init__(self, embeddings: Mapping[str, np.ndarray]):
        if not embeddings:
            raise ValueError("cannot build an index over an empty embedding map")
        self.concepts: List[str] = sorted(embeddings.keys())
        matrix = np.stack([np.asarray(embeddings[c], dtype=np.float64)
                           for c in self.concepts])
        self._normalized = normalize_rows(matrix)
        self._position = {c: i for i, c in enumerate(self.concepts)}

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept: str) -> bool:
        return concept in self._position

    def _rank(self, scores: np.ndarray, k: int) -> List[Tuple[str, float]]:
        """The ``k`` best-scoring concepts, best first.

        ``np.argpartition`` selects the candidates in O(n), and only those
        ``k`` are sorted, instead of fully sorting every score.
        """
        if k < len(scores):
            candidates = np.argpartition(-scores, k - 1)[:k]
            candidates = candidates[np.argsort(-scores[candidates])]
        else:
            candidates = np.argsort(-scores)
        return [(self.concepts[i], float(scores[i])) for i in candidates]

    def top_k_batch(self, queries: np.ndarray, k: int
                    ) -> List[List[Tuple[str, float]]]:
        """Top-k for a ``(q, d)`` batch of queries in one matrix multiply.

        Rows with zero norm yield empty result lists.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
        if k <= 0 or not len(queries):
            return [[] for _ in range(len(queries))]
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        safe = np.where(norms == 0, 1.0, norms)
        all_scores = (queries / safe) @ self._normalized.T
        return [self._rank(row, k) if norms[i, 0] else []
                for i, row in enumerate(all_scores)]
