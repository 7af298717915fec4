"""System benchmark — SCADS auxiliary-data selection latency.

Section 3.1 argues that graph-based selection scales with the number of
*concepts* (|Q_YS| << |A|), unlike visual-similarity selection which compares
against every auxiliary *image*.  This bench measures both so the claim can
be checked on the synthetic workspace: the SCADS query should be markedly
faster than the per-image visual scan while selecting comparable data.
"""

import numpy as np
import pytest

from _bench_lib import write_report


@pytest.fixture(scope="module")
def fmd_classes(bench_workspace):
    return bench_workspace.dataset("fmd").classes


def test_scads_graph_query_latency(bench_workspace, fmd_classes):
    """Latency of the graph-based SCADS query (the system's selection path)."""
    rng = np.random.default_rng(0)

    def query():
        return bench_workspace.scads.select(fmd_classes, num_related_concepts=5,
                                            images_per_concept=20, rng=rng)

    selection = query()
    assert not selection.is_empty()


def test_visual_similarity_scan_latency(bench_workspace, fmd_classes):
    """Latency of the strawman visual-similarity scan over all auxiliary images.

    For every target class, computes the distance from the class's labeled
    examples to *every* auxiliary image and keeps the closest ones — the
    pairwise approach the paper argues does not scale.
    """
    scads = bench_workspace.scads.scads
    concepts = scads.concepts_with_images()
    all_images = np.concatenate([scads.get_images(c) for c in concepts])
    world = bench_workspace.world
    queries = np.stack([world.prototype(spec.concept) for spec in fmd_classes])

    def scan():
        picked = []
        for query in queries:
            distances = np.linalg.norm(all_images - query, axis=1)
            picked.append(np.argsort(distances)[:100])
        return np.concatenate(picked)

    result = scan()
    assert len(result) == len(fmd_classes) * 100


def test_selection_quality_report(bench_workspace, fmd_classes):
    """Report the visual relevance of SCADS-selected concepts (per prune level)."""

    def measure():
        rows = {}
        for level in (None, 0, 1):
            bundle = (bench_workspace.scads.pruned(fmd_classes, level)
                      if level is not None else bench_workspace.scads)
            selection = bundle.select(fmd_classes, num_related_concepts=5,
                                      images_per_concept=5,
                                      rng=np.random.default_rng(0))
            distances = []
            for spec in fmd_classes:
                for concept in selection.per_target_concepts.get(spec.name, []):
                    distances.append(bench_workspace.world.prototype_distance(
                        spec.concept, concept))
            label = "no_pruning" if level is None else f"prune_level_{level}"
            rows[label] = float(np.mean(distances))
        return rows

    rows = measure()
    write_report("scads_selection_quality",
                 "SCADS selection quality — mean visual distance of selected "
                 "concepts to their target class\n"
                 + "\n".join(f"  {name:>15}: {value:.3f}" for name, value in rows.items()))
    assert rows["no_pruning"] < rows["prune_level_1"]
