"""The Structured Collection of Annotated Datasets (SCADS).

A SCADS joins every available annotated dataset to a common sense knowledge
graph: all images of a dataset class are attached to the corresponding
concept node (paper Section 3.1, Figure 3A).  This module implements that
repository:

* installing auxiliary datasets (concept -> image arrays),
* retrieving the images attached to a concept,
* extending the graph with new nodes for out-of-vocabulary target classes
  (paper Example 3.2),
* pruning — removing concepts close to the target classes from the pool of
  *selectable* auxiliary data to simulate distantly-related auxiliary data
  (paper Section 4.3).  Pruning affects which images can be retrieved, not
  the underlying ConceptNet graph, matching the paper's use of the
  ImageNet-21k semantic tree for pruning.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..kg.graph import KnowledgeGraph
from ..kg.hierarchy import pruned_concepts

__all__ = ["Scads"]


class Scads:
    """A knowledge graph joined with image collections per concept."""

    def __init__(self, graph: KnowledgeGraph):
        self.graph = graph
        self._images: Dict[str, np.ndarray] = {}
        self._datasets: Dict[str, List[str]] = {}
        self._excluded: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install_dataset(self, name: str,
                        concept_images: Mapping[str, np.ndarray]) -> int:
        """Attach a labeled dataset to the graph.

        ``concept_images`` maps concept name -> ``(n_i, d)`` image array.  All
        concepts must already exist in the graph (use :meth:`add_node` first
        for new concepts).  Returns the number of images installed.
        """
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} is already installed")
        installed_concepts: List[str] = []
        count = 0
        for concept, images in concept_images.items():
            concept = KnowledgeGraph.normalize(concept)
            if concept not in self.graph:
                raise KeyError(f"concept {concept!r} is not in the knowledge graph; "
                               "add it with add_node() before installing images")
            images = np.asarray(images, dtype=np.float64)
            if images.ndim != 2:
                raise ValueError(f"images for {concept!r} must be a 2-D array")
            if concept in self._images:
                self._images[concept] = np.concatenate([self._images[concept], images])
            else:
                self._images[concept] = images
            installed_concepts.append(concept)
            count += len(images)
        self._datasets[name] = installed_concepts
        return count

    def add_node(self, concept: str,
                 edges: Sequence[Tuple[str, str]] = ()) -> None:
        """Add a new concept node and connect it to existing concepts.

        ``edges`` is a sequence of ``(existing_concept, relation)`` pairs.
        This is how end users align target classes that have no counterpart in
        the knowledge graph (paper Example 3.2: ``oatghurt`` linked to
        yoghurt, carton, and oat milk).
        """
        concept = KnowledgeGraph.normalize(concept)
        self.graph.add_concept(concept)
        for neighbor, relation in edges:
            self.graph.add_edge(concept, neighbor, relation=relation)

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #
    def concepts_with_images(self) -> List[str]:
        """Concepts that currently have selectable images (Q_YS minus pruned)."""
        return [c for c in self._images if c not in self._excluded]

    def has_images(self, concept: str) -> bool:
        concept = KnowledgeGraph.normalize(concept)
        return concept in self._images and concept not in self._excluded

    def get_images(self, concept: str,
                   limit: Optional[int] = None,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return up to ``limit`` images attached to ``concept``.

        When ``limit`` is smaller than the number of stored images a random
        subset (without replacement) is returned; pass ``rng`` for
        reproducibility.
        """
        concept = KnowledgeGraph.normalize(concept)
        if not self.has_images(concept):
            raise KeyError(f"concept {concept!r} has no selectable images")
        images = self._images[concept]
        if limit is None or limit >= len(images):
            return images.copy()
        rng = rng if rng is not None else np.random.default_rng()
        indices = rng.choice(len(images), size=limit, replace=False)
        return images[indices]

    @property
    def image_dim(self) -> int:
        for images in self._images.values():
            return images.shape[1]
        raise RuntimeError("no datasets installed yet")

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def pruned(self, target_classes: Iterable[str], level: Optional[int]) -> "Scads":
        """Return a SCADS view with concepts near the target classes excluded.

        ``level`` follows the paper: ``None`` = no pruning, ``0`` = remove
        each target class and its descendants from the selectable pool, ``1``
        = additionally remove the parent and its whole subtree.  The graph and
        image store are shared (cheap), only the exclusion set differs.
        """
        view = Scads(self.graph)
        view._images = self._images
        view._datasets = self._datasets
        view._excluded = set(self._excluded)
        if level is None:
            return view
        for cls in target_classes:
            cls = KnowledgeGraph.normalize(cls)
            if cls not in self.graph:
                continue
            view._excluded |= pruned_concepts(self.graph, cls, level)
        return view

    @property
    def excluded_concepts(self) -> Set[str]:
        return set(self._excluded)
