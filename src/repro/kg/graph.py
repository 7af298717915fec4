"""Knowledge-graph data structure used as the backbone of SCADS.

The original system uses ConceptNet 5.5, whose nodes are natural-language
concepts and whose edges carry typed relations (``IsA``, ``RelatedTo``,
``AtLocation``, ...).  This module provides an equivalent structure built on
insertion-ordered dicts, with first-class support for the operations SCADS
needs:

* typed, weighted edges between concepts,
* a distinguished ``IsA`` hierarchy (the WordNet-style semantic tree used by
  the pruning experiments of Section 4.3),
* parent and descendant queries for pruning,
* neighbourhood queries used by embedding retrofitting and by the ZSL-KG
  graph neural network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Relation", "KnowledgeGraph"]


class Relation:
    """Canonical relation names, mirroring the ConceptNet relation vocabulary."""

    IS_A = "IsA"
    RELATED_TO = "RelatedTo"
    AT_LOCATION = "AtLocation"
    USED_FOR = "UsedFor"
    MADE_OF = "MadeOf"
    PART_OF = "PartOf"
    SYNONYM = "Synonym"

    #: Relations that define the semantic tree used for pruning.
    HIERARCHICAL = (IS_A,)

    #: All lateral (non-hierarchical) relations.
    LATERAL = (RELATED_TO, AT_LOCATION, USED_FOR, MADE_OF, PART_OF, SYNONYM)

    ALL = HIERARCHICAL + LATERAL


class KnowledgeGraph:
    """An undirected concept graph with a directed ``IsA`` hierarchy on top.

    Nodes are concept names (lower-case strings with underscores, like
    ConceptNet surface forms).  Lateral edges are stored undirected with a
    relation type and weight; hierarchical ``IsA`` edges are additionally
    tracked in a directed parent->child tree so pruning can find whole
    subtrees efficiently.

    Every concept is a key of three insertion-ordered dicts: ``_adj``
    (neighbour -> ``(relation, weight)``), ``_children`` and ``_parents``
    (both used as ordered sets).  Concept order is insertion order, and each
    neighbour list is in the order its edges were first added; retrofitting,
    the ZSL-KG node descriptions and backbone pretraining all read that order.
    """

    def __init__(self) -> None:
        self._adj: Dict[str, Dict[str, Tuple[str, float]]] = {}
        self._children: Dict[str, Dict[str, None]] = {}
        self._parents: Dict[str, Dict[str, None]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_concept(self, concept: str) -> None:
        """Add a concept node (idempotent)."""
        self._add_normalized(self.normalize(concept))

    def _add_normalized(self, concept: str) -> None:
        if concept not in self._adj:
            self._adj[concept] = {}
            self._children[concept] = {}
            self._parents[concept] = {}

    def add_edge(self, source: str, target: str, relation: str = Relation.RELATED_TO,
                 weight: float = 1.0) -> None:
        """Add a typed edge; ``IsA`` edges also register ``source`` as a child of ``target``.

        Re-adding an existing edge overwrites its relation and weight in
        place, so the neighbour order does not change.
        """
        source = self.normalize(source)
        target = self.normalize(target)
        if source == target:
            raise ValueError(f"self-loop on concept {source!r} is not allowed")
        if relation not in Relation.ALL:
            raise ValueError(f"unknown relation {relation!r}")
        if weight <= 0:
            raise ValueError("edge weight must be positive")
        self._add_normalized(source)
        self._add_normalized(target)
        data = (relation, float(weight))
        self._adj[source][target] = data
        self._adj[target][source] = data
        if relation == Relation.IS_A:
            # "source IsA target" => target is the parent of source.
            self._children[target][source] = None
            self._parents[source][target] = None

    @staticmethod
    def normalize(concept: str) -> str:
        """Normalize a concept name to ConceptNet-like surface form."""
        if not isinstance(concept, str) or not concept.strip():
            raise ValueError("concept names must be non-empty strings")
        return concept.strip().lower().replace(" ", "_").replace("-", "_")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def concepts(self) -> List[str]:
        return list(self._adj)

    def __contains__(self, concept: str) -> bool:
        try:
            return self.normalize(concept) in self._adj
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self._adj)

    def _known(self, concept: str) -> str:
        concept = self.normalize(concept)
        if concept not in self._adj:
            raise KeyError(f"unknown concept {concept!r}")
        return concept

    def neighbors(self, concept: str,
                  relations: Optional[Sequence[str]] = None) -> List[Tuple[str, str, float]]:
        """Return ``(neighbor, relation, weight)`` triples of a concept."""
        nbrs = self._adj[self._known(concept)]
        if relations is None:
            return [(name, relation, weight) for name, (relation, weight) in nbrs.items()]
        return [(name, relation, weight) for name, (relation, weight) in nbrs.items()
                if relation in relations]

    def parent(self, concept: str) -> Optional[str]:
        """Return the ``IsA`` parent of a concept (None for roots)."""
        return next(iter(self._parents[self._known(concept)]), None)

    def children(self, concept: str) -> List[str]:
        return list(self._children[self._known(concept)])

    def descendants(self, concept: str) -> Set[str]:
        """All concepts below ``concept`` in the semantic tree (excluding itself)."""
        found: Set[str] = set()
        stack = [self._known(concept)]
        while stack:
            for child in self._children[stack.pop()]:
                if child not in found:
                    found.add(child)
                    stack.append(child)
        found.discard(concept)
        return found

    def roots(self) -> List[str]:
        return [concept for concept, parents in self._parents.items() if not parents]

