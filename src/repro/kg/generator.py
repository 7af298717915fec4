"""Procedural generator for the synthetic ConceptNet used by SCADS.

:func:`build_concept_graph` assembles a :class:`~repro.kg.graph.KnowledgeGraph`
from the curated vocabulary (:mod:`repro.kg.vocabulary`), derived related
concepts for each leaf class, and a procedural "haystack" of filler concepts
that plays the role of the rest of ImageNet-21k.  The resulting graph has the
properties SCADS relies on:

* every target class of the four evaluation tasks (except the deliberately
  out-of-vocabulary grocery classes) is a node,
* every target class has a pool of semantically close auxiliary concepts
  (children and siblings) reachable through the ``IsA`` hierarchy and
  lateral ``RelatedTo`` edges,
* the vast majority of concepts are unrelated filler, so auxiliary-data
  selection is genuinely a needle-in-a-haystack problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import vocabulary as vocab
from .graph import KnowledgeGraph, Relation

__all__ = ["GraphSpec", "build_concept_graph"]


@dataclass
class GraphSpec:
    """Knobs controlling the size and connectivity of the generated graph."""

    #: number of procedurally named filler concepts (the haystack)
    num_filler_concepts: int = 1500
    #: number of derived related concepts added per curated leaf class
    derived_per_class: int = 5
    #: probability of a lateral RelatedTo edge between siblings
    sibling_edge_probability: float = 0.3
    #: number of random cross-domain lateral edges
    num_cross_links: int = 200
    #: maximum children per filler parent node
    filler_branching: int = 8
    seed: int = 0


def _add_tree(graph: KnowledgeGraph, parent: str, children: Sequence[str]) -> None:
    for child in children:
        graph.add_edge(child, parent, relation=Relation.IS_A)


def _add_sibling_links(graph: KnowledgeGraph, siblings: Sequence[str],
                       probability: float, rng: np.random.Generator) -> None:
    siblings = list(siblings)
    for i in range(len(siblings)):
        for j in range(i + 1, len(siblings)):
            if rng.random() < probability:
                graph.add_edge(siblings[i], siblings[j],
                               relation=Relation.RELATED_TO, weight=1.0)


def _derived_child_names(base: str, count: int) -> List[str]:
    """Derived concepts that are specializations (IsA children) of a class."""
    return [f"{base}_{suffix}" for suffix in vocab.RELATED_SUFFIXES][:count]


def _derived_cousin_names(base: str, count: int) -> List[str]:
    """Derived concepts that are lateral relatives of a class.

    These hang off the class's *parent* in the hierarchy with a lateral
    ``RelatedTo`` edge to the class itself, so prune level 0 (which removes a
    class and its descendants) keeps them available while prune level 1
    (which removes the parent's subtree) does not — reproducing the graded
    degradation of auxiliary relevance in the paper's Figure 4.
    """
    return [f"{prefix}_{base}" for prefix in vocab.RELATED_PREFIXES][:count]


def _attach_class_relatives(graph: KnowledgeGraph, cls: str, parent: str,
                            derived_per_class: int) -> None:
    """Attach derived children and lateral cousins of a curated leaf class."""
    for name in _derived_child_names(cls, derived_per_class):
        graph.add_edge(name, cls, relation=Relation.IS_A)
    for name in _derived_cousin_names(cls, derived_per_class):
        graph.add_edge(name, parent, relation=Relation.IS_A)
        graph.add_edge(name, cls, relation=Relation.RELATED_TO, weight=2.0)


def build_concept_graph(spec: Optional[GraphSpec] = None) -> KnowledgeGraph:
    """Build the synthetic ConceptNet graph.

    The graph is rooted at ``entity`` with the top-level domains of
    :data:`~repro.kg.vocabulary.TOP_LEVEL_DOMAINS`; curated subtrees hang off
    ``material`` (FMD), ``object`` (Office-Home), and ``food`` (Grocery
    Store); filler subtrees hang off the remaining domains.
    """
    spec = spec or GraphSpec()
    rng = np.random.default_rng(spec.seed)
    graph = KnowledgeGraph()

    graph.add_concept("entity")
    _add_tree(graph, "entity", vocab.TOP_LEVEL_DOMAINS)

    # ------------------------------------------------------------------ #
    # Materials (FMD)
    # ------------------------------------------------------------------ #
    _add_tree(graph, "material", list(vocab.MATERIAL_TREE.keys()))
    for material, related in vocab.MATERIAL_TREE.items():
        _add_tree(graph, material, related)
        _add_sibling_links(graph, related, spec.sibling_edge_probability, rng)
        _attach_class_relatives(graph, material, "material", spec.derived_per_class)
    _add_sibling_links(graph, list(vocab.MATERIAL_TREE.keys()), 0.15, rng)

    # ------------------------------------------------------------------ #
    # Office-Home objects
    # ------------------------------------------------------------------ #
    _add_tree(graph, "object", list(vocab.OFFICE_HOME_GROUPS.keys()))
    for group, classes in vocab.OFFICE_HOME_GROUPS.items():
        _add_tree(graph, group, classes)
        _add_sibling_links(graph, classes, spec.sibling_edge_probability, rng)
        for cls in classes:
            _attach_class_relatives(graph, cls, group, spec.derived_per_class)

    # ------------------------------------------------------------------ #
    # Grocery Store food items
    # ------------------------------------------------------------------ #
    _add_tree(graph, "food", list(vocab.GROCERY_GROUPS.keys()))
    for group, classes in vocab.GROCERY_GROUPS.items():
        _add_tree(graph, group, classes)
        _add_sibling_links(graph, classes, spec.sibling_edge_probability, rng)
        for cls in classes:
            _attach_class_relatives(graph, cls, group, spec.derived_per_class)

    # Cross links connecting food packaging to materials (e.g. carton <-> paper).
    graph.add_edge("carton", "cardboard", relation=Relation.MADE_OF)
    graph.add_edge("milk", "carton", relation=Relation.RELATED_TO)
    graph.add_edge("juice", "carton", relation=Relation.RELATED_TO)
    graph.add_edge("plastic_bag", "packaging", relation=Relation.RELATED_TO)

    # ------------------------------------------------------------------ #
    # Filler haystack
    # ------------------------------------------------------------------ #
    filler_domains = ["organism", "place", "abstraction"]
    filler_parents: List[str] = list(filler_domains)
    created = 0
    index = 0
    while created < spec.num_filler_concepts:
        parent = filler_parents[int(rng.integers(len(filler_parents)))]
        n_children = int(rng.integers(2, spec.filler_branching + 1))
        children = []
        for _ in range(n_children):
            if created >= spec.num_filler_concepts:
                break
            name = f"filler_{index:05d}"
            index += 1
            created += 1
            children.append(name)
        _add_tree(graph, parent, children)
        # Some filler nodes become parents themselves, deepening the tree.
        filler_parents.extend(children[: max(1, len(children) // 2)])

    # ------------------------------------------------------------------ #
    # Random cross-domain lateral edges (ConceptNet is far from a clean tree)
    # ------------------------------------------------------------------ #
    concepts = graph.concepts
    added = 0
    attempts = 0
    while added < spec.num_cross_links and attempts < spec.num_cross_links * 20:
        attempts += 1
        u = concepts[int(rng.integers(len(concepts)))]
        v = concepts[int(rng.integers(len(concepts)))]
        if u == v or u == "entity" or v == "entity":
            continue
        graph.add_edge(u, v, relation=Relation.RELATED_TO, weight=0.5)
        added += 1

    return graph
