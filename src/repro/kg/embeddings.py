"""Concept embeddings: synthetic "word vectors" plus expanded retrofitting.

SCADS embeddings in the paper are ConceptNet Numberbatch vectors: word
embeddings retrofitted onto the knowledge graph so that they express both
text co-occurrence and graph topology (Appendix A.1, Eq. 8).  We reproduce
both ingredients:

* :func:`generate_text_embeddings` creates word2vec-like vectors whose
  geometry is correlated with the semantic hierarchy (children are noisy
  copies of their parents) — the stand-in for embeddings "learned from text".
* :func:`retrofit` runs the Faruqui et al. / Speer & Chin expanded
  retrofitting iteration, minimizing
  ``sum_i alpha_i ||e_i - ê_i||^2 + sum_(i,j) beta_ij ||ê_i - ê_j||^2``.
  Concepts without a text vector use ``alpha = 0`` and are therefore pure
  graph averages — exactly how the paper handles out-of-vocabulary concepts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from .graph import KnowledgeGraph

__all__ = ["generate_text_embeddings", "hierarchical_gaussian", "retrofit",
           "normalize_rows"]


def normalize_rows(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize each row of a matrix (rows of all zeros are left as zeros)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.maximum(norms, eps)


def generate_text_embeddings(graph: KnowledgeGraph, dim: int = 64,
                             inheritance: float = 0.8,
                             seed: int = 0) -> Dict[str, np.ndarray]:
    """Generate word2vec-like vectors correlated with the semantic tree.

    Starting from random root vectors, each child's vector is
    ``inheritance * parent + sqrt(1 - inheritance^2) * noise`` so that graph
    proximity implies embedding proximity — the property real distributional
    embeddings have for taxonomic neighbours.
    """
    if not 0.0 <= inheritance < 1.0:
        raise ValueError("inheritance must be in [0, 1)")
    return hierarchical_gaussian(graph, dim, inheritance, np.random.default_rng(seed))


def hierarchical_gaussian(graph: KnowledgeGraph, dim: int, inheritance: float,
                          rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """One standard-normal vector per concept, diffused down the ``IsA`` tree.

    Roots get pure noise; a child reached breadth-first from its parent gets
    ``inheritance * parent + sqrt(1 - inheritance^2) * noise``; concepts no
    root reaches get pure noise.  The noise rows are drawn in that visit
    order (roots, breadth-first children, then the unreached concepts in
    concept order) with a single ``rng.normal`` call, which fills the array
    from the generator's stream element by element exactly as one
    ``size=dim`` draw per concept would, and leaves ``rng`` in the same
    state.  Children are then combined with their parents one tree level at
    a time.  Returns the vectors keyed in visit order.
    """
    noise_scale = np.sqrt(1.0 - inheritance ** 2)
    roots = graph.roots()
    row = {concept: r for r, concept in enumerate(roots)}
    parents = list(range(len(roots)))   # parent row of each row (roots: own)
    level_ends: List[int] = []          # end row of each level below the roots
    level = roots
    while level:
        following = []
        for parent in level:
            for child in graph.children(parent):
                if child not in row:
                    row[child] = len(row)
                    parents.append(row[parent])
                    following.append(child)
        if following:
            level_ends.append(len(row))
        level = following
    for concept in graph.concepts:
        if concept not in row:
            row[concept] = len(row)

    vectors = rng.normal(0.0, 1.0, size=(len(row), dim))
    start = len(roots)
    for end in level_ends:
        above = vectors[parents[start:end]]
        vectors[start:end] = inheritance * above + noise_scale * vectors[start:end]
        start = end
    return {concept: vectors[r] for concept, r in row.items()}


def retrofit(graph: KnowledgeGraph,
             text_embeddings: Mapping[str, np.ndarray],
             iterations: int = 10,
             alpha: float = 1.0,
             beta: float = 1.0,
             normalize_by_degree: bool = True,
             relations: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
    """Expanded retrofitting of text embeddings onto the knowledge graph.

    Parameters
    ----------
    graph:
        The concept graph providing the neighbourhood structure.
    text_embeddings:
        Mapping of concept -> original vector.  Concepts present in the graph
        but missing here are treated as out-of-vocabulary (``alpha = 0``).
    iterations:
        Number of Jacobi-style update sweeps; the objective is convex, so a
        modest number of sweeps converges in practice.
    alpha, beta:
        Weights of the text-anchoring and graph-smoothing terms of Eq. 8.
    normalize_by_degree:
        Use ``beta_ij = beta * w_ij / degree(i)`` (Faruqui et al.'s choice) so
        the neighbourhood as a whole carries the same weight as the original
        vector; without it, high-degree concepts are smoothed into their
        neighbourhood average and lose their identity.
    relations:
        Restrict smoothing to these relation types (default: all).

    Returns
    -------
    dict
        Concept -> retrofitted "SCADS embedding".
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    concepts = graph.concepts
    if not concepts:
        return {}
    dims = {len(v) for v in text_embeddings.values()}
    if len(dims) > 1:
        raise ValueError("text embeddings have inconsistent dimensions")
    dim = dims.pop() if dims else 64

    relations = tuple(relations) if relations is not None else None
    index = {c: i for i, c in enumerate(concepts)}
    original = np.zeros((len(concepts), dim))
    alphas = np.zeros(len(concepts))
    for concept, i in index.items():
        if concept in text_embeddings:
            original[i] = np.asarray(text_embeddings[concept], dtype=np.float64)
            alphas[i] = alpha

    retrofitted = original.copy()
    # Seed OOV concepts with the mean of their in-vocabulary neighbours so the
    # first sweep starts from something sensible.
    for concept, i in index.items():
        if alphas[i] == 0:
            neighbor_vecs = [original[index[n]] for n, _, _ in graph.neighbors(concept)
                             if alphas[index[n]] > 0]
            if neighbor_vecs:
                retrofitted[i] = np.mean(neighbor_vecs, axis=0)

    neighbor_lists = []
    for concept in concepts:
        raw = [(index[n], w) for n, rel, w in graph.neighbors(concept)
               if relations is None or rel in relations]
        if normalize_by_degree and raw:
            total = sum(w for _, w in raw)
            pairs = [(j, beta * w / total) for j, w in raw]
        else:
            pairs = [(j, beta * w) for j, w in raw]
        neighbor_lists.append(pairs)

    if iterations > 0:
        retrofitted = _sweep(retrofitted, original, alphas, neighbor_lists, iterations)
    return {concept: retrofitted[i] for concept, i in index.items()}


def _sweep(retrofitted: np.ndarray, original: np.ndarray, alphas: np.ndarray,
           neighbor_lists, iterations: int) -> np.ndarray:
    """Run the Jacobi sweeps of :func:`retrofit` over slot arrays.

    Concept ``i`` is updated to
    ``(alpha_i * e_i + w_1 * r_j1 + ... + w_d * r_jd) / (alpha_i + w_1 + ... + w_d)``,
    summed left to right in neighbour order, unless it has no neighbours or
    a non-positive total weight.  Rows are permuted so concepts come in
    descending neighbour count; slot ``k`` then holds the ``k``-th neighbour
    of a prefix of the rows, and adding the slots in order performs, for
    every row, the same float64 multiply-adds in the same order as a loop
    over that row's neighbours.  The results are therefore bit-identical to
    the per-concept loop, with one gather, multiply and add per slot.
    """
    degrees = np.array([len(pairs) for pairs in neighbor_lists])
    order = np.argsort(-degrees, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    active = int(np.count_nonzero(degrees))

    cols = [[] for _ in range(int(degrees.max(initial=0)))]
    weights = [[] for _ in cols]
    for i in order[:active]:
        for k, (j, w) in enumerate(neighbor_lists[i]):
            cols[k].append(position[j])
            weights[k].append(w)
    slots = [(np.array(c, dtype=np.intp), np.array(w)[:, None])
             for c, w in zip(cols, weights)]

    current = retrofitted[order]
    anchor = alphas[order[:active], None] * original[order[:active]]
    total = alphas[order[:active]].copy()
    for _, w in slots:
        total[:len(w)] += w[:, 0]
    stale = np.flatnonzero(~(total > 0))
    total[stale] = 1.0          # these rows keep their value; avoid 0/0
    total = total[:, None]

    following = current.copy()
    accumulator = np.empty_like(anchor)
    gathered = np.empty_like(anchor)
    for _ in range(iterations):
        np.copyto(accumulator, anchor)
        for c, w in slots:
            rows = len(c)
            # Indices are in range; "clip" lets take write straight into
            # ``out`` (the default mode buffers it).
            np.take(current, c, axis=0, out=gathered[:rows], mode="clip")
            np.multiply(gathered[:rows], w, out=gathered[:rows])
            np.add(accumulator[:rows], gathered[:rows], out=accumulator[:rows])
        np.divide(accumulator, total, out=following[:active])
        following[stale] = current[stale]
        current, following = following, current
    return current[position]
