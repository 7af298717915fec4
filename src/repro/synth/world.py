"""The synthetic visual world: concept prototypes and image sampling.

Real auxiliary data (ImageNet-21k) has the property that *semantically
related concepts look alike*: images of cling film help you recognize
plastic.  That correlation between graph structure and visual appearance is
what SCADS exploits, so the synthetic substitute must preserve it.

:class:`VisualWorld` assigns every concept of the knowledge graph a latent
*visual prototype* obtained by diffusing random vectors down the ``IsA``
hierarchy (children are noisy copies of their parents) followed by a
smoothing pass over lateral relations.  An "image" of a concept is the
prototype plus Gaussian appearance noise, optionally passed through a
:class:`~repro.synth.domains.DomainShift`.

Consequences (verified by tests):

* graph-close concepts have close prototypes, so auxiliary data selected by
  SCADS is visually useful for the target class;
* pruning the graph forces SCADS to select more distant concepts whose
  prototypes are farther away, degrading auxiliary usefulness — the
  behaviour studied in the paper's Section 4.4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..kg.embeddings import generate_text_embeddings, hierarchical_gaussian
from ..kg.graph import KnowledgeGraph, Relation
from .domains import DomainShift, NaturalDomain, build_domain

__all__ = ["WorldSpec", "VisualWorld"]


@dataclass
class WorldSpec:
    """Parameters of the synthetic visual world."""

    image_dim: int = 24
    #: how strongly a child's prototype follows its parent (0..1); only used
    #: for the hierarchy-diffusion component of the prototype
    inheritance: float = 0.75
    #: fraction of a prototype's variance explained by the concept's semantic
    #: embedding (the rest is idiosyncratic appearance).  This is what makes
    #: zero-shot learning from the knowledge graph possible at all: word
    #: embeddings of real concepts do carry visual information.
    semantic_weight: float = 0.85
    #: dimension of the generated semantic embeddings when none are supplied
    semantic_dim: int = 64
    #: weight of lateral-relation smoothing applied after the hierarchy pass
    lateral_smoothing: float = 0.15
    #: appearance noise when rendering an image from a prototype
    image_noise: float = 0.35
    #: intra-class diversity: per-image random scale of the prototype
    style_scale: float = 0.1
    seed: int = 0


class VisualWorld:
    """Generative model of images for every concept in a knowledge graph.

    ``semantic_embeddings`` (concept -> vector) ties visual appearance to the
    same per-concept representation used for SCADS embeddings; when omitted,
    embeddings are generated from the graph with the world's seed.  Sharing
    the embeddings between the world and SCADS is what gives the synthetic
    data the real-world property that semantic similarity predicts visual
    similarity.
    """

    def __init__(self, graph: KnowledgeGraph, spec: Optional[WorldSpec] = None,
                 semantic_embeddings: Optional[Mapping[str, np.ndarray]] = None):
        self.graph = graph
        self.spec = spec or WorldSpec()
        if semantic_embeddings is None:
            semantic_embeddings = generate_text_embeddings(
                graph, dim=self.spec.semantic_dim, seed=self.spec.seed)
        self._semantic = {KnowledgeGraph.normalize(k): np.asarray(v, dtype=np.float64)
                          for k, v in semantic_embeddings.items()}
        self._prototypes = self._build_prototypes()
        self._domains: Dict[str, DomainShift] = {"natural": NaturalDomain()}

    # ------------------------------------------------------------------ #
    # Prototype construction
    # ------------------------------------------------------------------ #
    def _build_prototypes(self) -> Dict[str, np.ndarray]:
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        dim = spec.image_dim

        # Hierarchy-diffused component (idiosyncratic but taxonomically smooth).
        hierarchical = hierarchical_gaussian(self.graph, dim, spec.inheritance, rng)

        # Semantic component: a fixed random projection of the concept embedding.
        semantic_dims = {len(v) for v in self._semantic.values()}
        semantic_dim = semantic_dims.pop() if semantic_dims else spec.semantic_dim
        self._projection = rng.normal(0.0, 1.0 / np.sqrt(semantic_dim),
                                      size=(dim, semantic_dim))

        weight = np.clip(spec.semantic_weight, 0.0, 1.0)
        prototypes: Dict[str, np.ndarray] = {}
        for concept in self.graph.concepts:
            idiosyncratic = hierarchical[concept]
            if concept in self._semantic and weight > 0:
                projected = self._projection @ self._semantic[concept]
                prototypes[concept] = (np.sqrt(weight) * projected
                                       + np.sqrt(1.0 - weight) * idiosyncratic)
            else:
                prototypes[concept] = idiosyncratic

        # Lateral smoothing: related concepts look a bit more alike.
        if spec.lateral_smoothing > 0:
            smoothed = dict(prototypes)
            for concept in self.graph.concepts:
                lateral = [prototypes[n] for n, rel, _ in self.graph.neighbors(concept)
                           if rel in Relation.LATERAL]
                if lateral:
                    neighbourhood = np.mean(lateral, axis=0)
                    smoothed[concept] = ((1.0 - spec.lateral_smoothing) * prototypes[concept]
                                         + spec.lateral_smoothing * neighbourhood)
            prototypes = smoothed
        return prototypes

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def image_dim(self) -> int:
        return self.spec.image_dim

    @property
    def concepts(self) -> List[str]:
        return list(self._prototypes.keys())

    def __contains__(self, concept: str) -> bool:
        try:
            return KnowledgeGraph.normalize(concept) in self._prototypes
        except ValueError:
            return False

    def prototype(self, concept: str) -> np.ndarray:
        """The latent visual prototype of a concept (copy)."""
        concept = KnowledgeGraph.normalize(concept)
        if concept not in self._prototypes:
            raise KeyError(f"concept {concept!r} has no visual prototype")
        return self._prototypes[concept].copy()

    def add_concept_prototype(self, concept: str,
                              anchors: Sequence[str],
                              weights: Optional[Sequence[float]] = None,
                              jitter: float = 0.1,
                              seed: int = 0) -> np.ndarray:
        """Create a prototype for a new concept as a mixture of anchor concepts.

        Used when SCADS is extended with out-of-vocabulary target classes such
        as ``oatghurt`` (paper Example 3.2): the new concept's appearance is a
        blend of its anchoring concepts (yoghurt, carton, oat milk).
        """
        concept = KnowledgeGraph.normalize(concept)
        if not anchors:
            raise ValueError("at least one anchor concept is required")
        anchor_protos = [self.prototype(a) for a in anchors]
        if weights is None:
            weights = [1.0 / len(anchor_protos)] * len(anchor_protos)
        if len(weights) != len(anchor_protos):
            raise ValueError("weights must match anchors in length")
        rng = np.random.default_rng(seed)
        prototype = np.average(anchor_protos, axis=0, weights=weights)
        prototype = prototype + rng.normal(0.0, jitter, size=self.image_dim)
        self._prototypes[concept] = prototype
        return prototype.copy()

    def domain(self, name: str) -> DomainShift:
        """Get (and cache) a domain shift by name, consistent across calls."""
        if name not in self._domains:
            self._domains[name] = build_domain(name, self.image_dim,
                                               seed=self.spec.seed + 17)
        return self._domains[name]

    def sample_images(self, concept: str, count: int, domain: str = "natural",
                      rng: Optional[np.random.Generator] = None,
                      noise: Optional[float] = None) -> np.ndarray:
        """Sample ``count`` images of ``concept`` rendered in ``domain``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        prototype = self.prototype(concept)
        noise = self.spec.image_noise if noise is None else noise
        styles = 1.0 + rng.normal(0.0, self.spec.style_scale, size=(count, 1))
        clean = styles * prototype[None, :] + rng.normal(0.0, noise,
                                                         size=(count, self.image_dim))
        return self.domain(domain)(clean)

    def prototype_distance(self, concept_a: str, concept_b: str) -> float:
        """Euclidean distance between two concept prototypes."""
        return float(np.linalg.norm(self.prototype(concept_a) - self.prototype(concept_b)))
