"""Auxiliary-data selection: the SCADS query of paper Section 3.1.

For every target class the query finds the ``N`` most semantically similar
concepts that have auxiliary images, then retrieves up to ``K`` images from
each, producing the selected auxiliary set ``R`` with ``|R| <= C * N * K``
examples and an auxiliary label space of one class per selected concept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.base import ClassSpec
from ..kg.graph import KnowledgeGraph
from .embedding import ScadsEmbedding
from .scads import Scads

__all__ = ["AuxiliarySelection", "select_auxiliary_data", "target_class_vector"]


@dataclass
class AuxiliarySelection:
    """The result of a SCADS auxiliary-data query.

    ``features``/``labels`` form the auxiliary classification task used by the
    Transfer, Multi-task and FixMatch modules; ``concepts`` names the
    auxiliary classes; ``per_target_concepts`` records which concepts were
    selected for each target class (useful for inspection and for the
    Figure 4 style analyses).

    A selection also memoizes the backbone fine-tuned on it (the
    intermediate phase the Transfer and FixMatch modules share, see
    :func:`repro.modules.base.fine_tune_on_auxiliary`).  The memo is
    private, excluded from equality and ``repr``, and starts empty on
    every new selection, ``dataclasses.replace`` copies included.  Treat
    the arrays as read-only once a module has trained on them.
    """

    features: np.ndarray
    labels: np.ndarray
    concepts: List[str]
    per_target_concepts: Dict[str, List[str]] = field(default_factory=dict)
    _fine_tuned: Dict[tuple, Dict[str, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _fine_tune_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, compare=False, repr=False)

    @classmethod
    def empty(cls, dim: int) -> "AuxiliarySelection":
        """A selection with no auxiliary data over ``dim``-wide features."""
        return cls(features=np.zeros((0, dim)),
                   labels=np.zeros(0, dtype=np.int64), concepts=[])

    @property
    def num_aux_classes(self) -> int:
        return len(self.concepts)

    def __len__(self) -> int:
        return len(self.features)

    def is_empty(self) -> bool:
        return len(self.features) == 0


def target_class_vector(spec: ClassSpec, scads: Scads,
                        embedding: ScadsEmbedding) -> Optional[np.ndarray]:
    """SCADS embedding for a target class, handling out-of-vocabulary classes.

    Resolution order:

    1. the class concept's retrofitted vector, if the class maps to a graph
       concept;
    2. for a class added to the graph as a new node (via ``Scads.add_node``):
       the neighbour-average vector (retrofitting with ``alpha = 0``);
    3. the longest-prefix approximation;
    4. ``None`` when nothing applies (the class is skipped by the query).
    """
    name = KnowledgeGraph.normalize(spec.name)
    concept = spec.concept and KnowledgeGraph.normalize(spec.concept)
    if concept and concept in embedding:
        return embedding.get_vector(concept)
    if name in embedding:
        return embedding.get_vector(name)
    if name in scads.graph:
        try:
            return embedding.compute_node_vector(name)
        except KeyError:
            pass
    approximation = embedding.approximate_vector(name)
    return approximation


def select_auxiliary_data(scads: Scads, embedding: ScadsEmbedding,
                          target_classes: Sequence[ClassSpec],
                          num_related_concepts: int = 5,
                          images_per_concept: int = 20,
                          rng: Optional[np.random.Generator] = None
                          ) -> AuxiliarySelection:
    """Select task-related auxiliary data ``R`` from SCADS.

    Parameters
    ----------
    scads:
        The (possibly pruned) SCADS repository.
    embedding:
        SCADS embeddings used for graph-based similarity.
    target_classes:
        The target task's classes.
    num_related_concepts:
        ``N`` — concepts retrieved per target class.
    images_per_concept:
        ``K`` — images retrieved per selected concept.

    A target concept that has images in SCADS is selectable, as in the
    paper's unpruned setting; to bar concepts near the targets, select
    from a pruned bundle (:meth:`~repro.scads.ScadsBundle.pruned`).
    """
    if num_related_concepts <= 0 or images_per_concept <= 0:
        raise ValueError("num_related_concepts and images_per_concept must be positive")
    rng = rng if rng is not None else np.random.default_rng()

    candidates = scads.concepts_with_images()
    if not candidates:
        return AuxiliarySelection.empty(0)

    # Resolve every target class's query vector first, then rank all of them
    # against the candidate set in one batched similarity query (a single
    # matrix multiply over one shared index instead of per-class queries).
    queries: List[np.ndarray] = []
    queried_specs: List[ClassSpec] = []
    per_target: Dict[str, List[str]] = {}
    for spec in target_classes:
        query = target_class_vector(spec, scads, embedding)
        if query is None:
            per_target[spec.name] = []
            continue
        queries.append(query)
        queried_specs.append(spec)

    ranked_batch = embedding.related_concepts_batch(
        queries, top_k=num_related_concepts, candidates=candidates)

    selected_concepts: List[str] = []
    for spec, ranked in zip(queried_specs, ranked_batch):
        chosen = [concept for concept, _ in ranked]
        per_target[spec.name] = chosen
        selected_concepts.extend(chosen)

    # Deduplicate while preserving order: a concept selected for two target
    # classes contributes a single auxiliary class.
    unique_concepts: List[str] = []
    seen = set()
    for concept in selected_concepts:
        if concept not in seen:
            seen.add(concept)
            unique_concepts.append(concept)

    features: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    for aux_label, concept in enumerate(unique_concepts):
        images = scads.get_images(concept, limit=images_per_concept, rng=rng)
        features.append(images)
        labels.append(np.full(len(images), aux_label, dtype=np.int64))

    if not features:
        selection = AuxiliarySelection.empty(scads.image_dim)
        selection.per_target_concepts = per_target
        return selection
    return AuxiliarySelection(features=np.concatenate(features, axis=0),
                              labels=np.concatenate(labels, axis=0),
                              concepts=unique_concepts,
                              per_target_concepts=per_target)
