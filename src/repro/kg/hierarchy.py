"""Semantic-tree utilities for the pruning experiments (paper Section 4.3).

Pruning simulates the scenario where only distantly-related auxiliary data is
available: for a target class ``c``,

* **prune level 0** removes ``c`` and all of its descendants from SCADS,
* **prune level 1** additionally removes ``c``'s parent and the parent's
  whole subtree.
"""

from __future__ import annotations

from typing import Set

from .graph import KnowledgeGraph

__all__ = ["PRUNE_NONE", "PRUNE_LEVEL_0", "PRUNE_LEVEL_1", "pruned_concepts"]

PRUNE_NONE = None
PRUNE_LEVEL_0 = 0
PRUNE_LEVEL_1 = 1


def pruned_concepts(graph: KnowledgeGraph, target_class: str,
                    level: int) -> Set[str]:
    """Concepts removed when pruning SCADS around ``target_class`` at ``level``.

    Level 0: the class node and its descendants.
    Level 1: additionally the parent node and the parent's full subtree.
    Classes absent from the graph (out-of-vocabulary targets) prune nothing.
    """
    if level not in (PRUNE_LEVEL_0, PRUNE_LEVEL_1):
        raise ValueError(f"unsupported prune level {level!r}")
    target_class = KnowledgeGraph.normalize(target_class)
    if target_class not in graph:
        return set()
    removed: Set[str] = {target_class}
    removed |= graph.descendants(target_class)
    if level >= PRUNE_LEVEL_1:
        parent = graph.parent(target_class)
        if parent is not None:
            removed.add(parent)
            removed |= graph.descendants(parent)
    return removed
