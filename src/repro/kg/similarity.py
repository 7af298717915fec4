"""Graph-embedding similarity queries used by SCADS auxiliary-data selection."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .embeddings import normalize_rows

__all__ = ["cosine_similarity", "top_k_similar", "EmbeddingIndex"]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 if either is all zeros)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


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

    def vector(self, concept: str) -> np.ndarray:
        return self._normalized[self._position[concept]]

    def top_k(self, query: np.ndarray, k: int,
              exclude: Optional[Sequence[str]] = None) -> List[Tuple[str, float]]:
        """Return the ``k`` concepts most cosine-similar to ``query``.

        Uses ``np.argpartition`` to select the candidate set in O(n) and only
        sorts those ``k + |exclude|`` candidates, instead of fully sorting
        every score.
        """
        if k <= 0:
            return []
        query = np.asarray(query, dtype=np.float64)
        norm = np.linalg.norm(query)
        if norm == 0:
            return []
        scores = self._normalized @ (query / norm)
        return self._rank(scores, k, set(exclude or ()))

    def _rank(self, scores: np.ndarray, k: int,
              excluded: set) -> List[Tuple[str, float]]:
        # Partition for the k best plus enough headroom to absorb excluded
        # concepts that land in the top slots.
        want = min(k + len(excluded), len(scores))
        if want < len(scores):
            candidates = np.argpartition(-scores, want - 1)[:want]
            candidates = candidates[np.argsort(-scores[candidates])]
        else:
            candidates = np.argsort(-scores)
        out: List[Tuple[str, float]] = []
        for i in candidates:
            concept = self.concepts[i]
            if concept in excluded:
                continue
            out.append((concept, float(scores[i])))
            if len(out) == k:
                break
        return out

    def top_k_batch(self, queries: np.ndarray, k: int
                    ) -> List[List[Tuple[str, float]]]:
        """Top-k for a ``(q, d)`` batch of queries in one matrix multiply.

        Rows with zero norm yield empty result lists (mirroring
        :meth:`top_k` on a zero query).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
        if k <= 0 or not len(queries):
            return [[] for _ in range(len(queries))]
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        safe = np.where(norms == 0, 1.0, norms)
        all_scores = (queries / safe) @ self._normalized.T
        return [self._rank(row, k, set()) if norms[i, 0] else []
                for i, row in enumerate(all_scores)]


def top_k_similar(embeddings: Mapping[str, np.ndarray], query: np.ndarray, k: int,
                  exclude: Optional[Sequence[str]] = None) -> List[Tuple[str, float]]:
    """Convenience wrapper building a throwaway :class:`EmbeddingIndex`."""
    return EmbeddingIndex(embeddings).top_k(query, k, exclude=exclude)
