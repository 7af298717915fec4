"""Figure 4 — related concepts retrieved for a target class under pruning.

The paper illustrates, for the target classes ``plastic`` and ``stone``, the
ten most related SCADS concepts with no pruning, at prune level 0, and at
prune level 1.  The qualitative expectation: without pruning the retrieved
concepts are close relatives (cling film, plastic bag, ...); at level 0 they
are lateral cousins; at level 1 they are only distantly related.  We verify
that quantitatively via the visual-prototype distance of the retrieved
concepts to the target class.
"""

import numpy as np

from _bench_lib import write_report
from repro.kg import KnowledgeGraph

TARGET_CLASSES = ("plastic", "stone")
TOP_K = 10
PRUNE_LEVELS = (None, 0, 1)


def _retrieve(workspace, target_class, prune_level):
    dataset = workspace.dataset("fmd")
    spec = [c for c in dataset.classes if c.name == target_class][0]
    bundle = workspace.scads.pruned([spec], prune_level) if prune_level is not None \
        else workspace.scads
    candidates = bundle.scads.concepts_with_images()
    # One extra slot, since the query concept ranks itself when unpruned.
    [ranked] = bundle.embedding.related_concepts_batch(
        [bundle.embedding.get_vector(spec.concept)], top_k=TOP_K + 1,
        candidates=candidates)
    query = KnowledgeGraph.normalize(spec.concept)
    return [concept for concept, _ in ranked if concept != query][:TOP_K]


def test_figure4(bench_workspace):
    def regenerate():
        table = {}
        for target in TARGET_CLASSES:
            table[target] = {level: _retrieve(bench_workspace, target, level)
                             for level in PRUNE_LEVELS}
        return table

    retrieved = regenerate()

    lines = ["Figure 4 — top related concepts under pruning",
             "=" * 52]
    distances = {}
    for target, by_level in retrieved.items():
        lines.append(f"\nTarget class: {target}")
        for level, concepts in by_level.items():
            label = "no pruning" if level is None else f"prune level {level}"
            lines.append(f"  {label:>14}: " + ", ".join(concepts))
            distances[(target, level)] = float(np.mean(
                [bench_workspace.world.prototype_distance(target, c)
                 for c in concepts]))
        lines.append("  mean visual distance of retrieved concepts: "
                     + ", ".join(f"{label}={distances[(target, lvl)]:.2f}"
                                 for label, lvl in
                                 [("none", None), ("p0", 0), ("p1", 1)]))
    write_report("figure4_pruning_concepts", "\n".join(lines))

    # Shape check: prune level 1 retrieves clearly more distant concepts for
    # every target class; level 0 sits between no pruning and level 1 on
    # average (per-class it can tie with no pruning within noise, since the
    # surviving lateral cousins are deliberately still related).
    for target in TARGET_CLASSES:
        assert distances[(target, None)] < distances[(target, 1)]
        assert distances[(target, 0)] < distances[(target, 1)]
    mean_none = np.mean([distances[(t, None)] for t in TARGET_CLASSES])
    mean_level_0 = np.mean([distances[(t, 0)] for t in TARGET_CLASSES])
    assert mean_level_0 >= mean_none - 0.1
