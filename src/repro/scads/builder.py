"""Convenience builders assembling a ready-to-query SCADS.

The paper installs ImageNet-21k into SCADS on top of ConceptNet.  Here the
equivalent is sampling images for (almost) every concept of the synthetic
knowledge graph from the :class:`~repro.synth.world.VisualWorld` and
installing them as the ``imagenet21k`` auxiliary dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..datasets.base import ClassSpec
from ..kg.graph import KnowledgeGraph, Relation
from ..synth.world import VisualWorld
from .embedding import ScadsEmbedding
from .query import AuxiliarySelection, select_auxiliary_data
from .scads import Scads

__all__ = ["ScadsBundle", "install_imagenet21k", "build_scads", "align_target_classes"]

#: Structural concepts that never carry images (they are organizational
#: nodes, like WordNet synsets high up the hierarchy).
_STRUCTURAL_CONCEPTS = {"entity", "material", "object", "food", "organism",
                        "place", "abstraction"}


@dataclass
class ScadsBundle:
    """A SCADS repository together with its embeddings — the unit modules consume."""

    scads: Scads
    embedding: ScadsEmbedding

    def select(self, target_classes: Sequence[ClassSpec],
               num_related_concepts: int = 5, images_per_concept: int = 20,
               rng: Optional[np.random.Generator] = None
               ) -> AuxiliarySelection:
        """Query the bundle for task-related auxiliary data."""
        return select_auxiliary_data(
            self.scads, self.embedding, target_classes,
            num_related_concepts=num_related_concepts,
            images_per_concept=images_per_concept, rng=rng)

    def pruned(self, target_classes: Sequence[ClassSpec],
               level: Optional[int]) -> "ScadsBundle":
        """A view of the bundle with concepts near the target classes excluded."""
        names = [c.concept for c in target_classes if c.concept]
        return ScadsBundle(scads=self.scads.pruned(names, level),
                           embedding=self.embedding)


def install_imagenet21k(scads: Scads, world: VisualWorld,
                        images_per_concept: int = 30,
                        skip_concepts: Iterable[str] = (),
                        seed: int = 0) -> int:
    """Install the ImageNet-21k analog: natural-domain images for every concept.

    Structural (purely organizational) concepts and anything in
    ``skip_concepts`` are left without images.  Returns the number of images
    installed.
    """
    rng = np.random.default_rng(seed)
    skip = {KnowledgeGraph.normalize(c) for c in skip_concepts} | _STRUCTURAL_CONCEPTS
    concept_images: Dict[str, np.ndarray] = {}
    for concept in scads.graph.concepts:
        if concept in skip:
            continue
        concept_images[concept] = world.sample_images(
            concept, images_per_concept, domain="natural", rng=rng)
    return scads.install_dataset("imagenet21k", concept_images)


def build_scads(graph: KnowledgeGraph, world: VisualWorld,
                images_per_concept: int = 30, seed: int = 0,
                embedding_dim: int = 64,
                text_embeddings=None) -> ScadsBundle:
    """Build a SCADS with the ImageNet-21k analog installed and embeddings ready.

    ``text_embeddings`` should normally be the same concept embeddings the
    visual world was built from, so that SCADS similarity reflects visual
    similarity (how the Workspace wires things up).
    """
    scads = Scads(graph)
    install_imagenet21k(scads, world, images_per_concept=images_per_concept, seed=seed)
    embedding = ScadsEmbedding(graph, text_embeddings=text_embeddings,
                               dim=embedding_dim, seed=seed)
    return ScadsBundle(scads=scads, embedding=embedding)


def align_target_classes(bundle: ScadsBundle, world: VisualWorld,
                         target_classes: Sequence[ClassSpec],
                         images_per_new_concept: int = 0,
                         seed: int = 0) -> List[str]:
    """Align target classes with SCADS, adding nodes for OOV classes.

    For every class without a graph concept (e.g. ``oatghurt``), a new node is
    added, linked to its anchor concepts, and given a SCADS embedding computed
    from its neighbours (retrofitting with ``alpha = 0``).  Optionally a small
    number of synthetic images can be attached to the new node (the paper does
    not do this — auxiliary images come only from installed datasets — so the
    default is 0).

    Returns the list of newly added concept names.
    """
    added: List[str] = []
    for spec in target_classes:
        if spec.concept is not None:
            continue
        name = KnowledgeGraph.normalize(spec.name)
        if name not in bundle.scads.graph:
            edges = [(anchor, Relation.RELATED_TO) for anchor in spec.anchors]
            bundle.scads.add_node(name, edges=edges)
            added.append(name)
        if name not in bundle.embedding:
            vector = bundle.embedding.compute_node_vector(name)
            bundle.embedding.register_vector(name, vector)
        if images_per_new_concept > 0:
            if name not in world:
                world.add_concept_prototype(name, spec.anchors, seed=seed)
            rng = np.random.default_rng(seed)
            images = world.sample_images(name, images_per_new_concept, rng=rng)
            bundle.scads.install_dataset(f"user_{name}", {name: images})
    return added
