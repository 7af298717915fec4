"""``repro.kg`` — the common sense knowledge graph substrate of SCADS.

Provides the ConceptNet-analog graph structure, a procedural generator with
a curated vocabulary covering the paper's target tasks, concept embeddings
with expanded retrofitting (SCADS embeddings), similarity queries, and the
semantic-tree pruning used in Section 4.3 of the paper.
"""

from . import vocabulary
from .embeddings import generate_text_embeddings, normalize_rows, retrofit
from .generator import GraphSpec, build_concept_graph
from .graph import KnowledgeGraph, Relation
from .hierarchy import PRUNE_LEVEL_0, PRUNE_LEVEL_1, PRUNE_NONE, pruned_concepts
from .similarity import EmbeddingIndex

__all__ = [
    "KnowledgeGraph", "Relation",
    "GraphSpec", "build_concept_graph",
    "generate_text_embeddings", "retrofit", "normalize_rows",
    "EmbeddingIndex",
    "PRUNE_NONE", "PRUNE_LEVEL_0", "PRUNE_LEVEL_1",
    "pruned_concepts",
    "vocabulary",
]
