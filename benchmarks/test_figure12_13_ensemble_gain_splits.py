"""Figures 12 and 13 — ensemble / end-model gain on splits 1 and 2.

The appendix repeats the ensembling analysis (Figures 6/9) on the other two
splits.  Defaults mirror the Figure 10/11 bench; widen with
``REPRO_BENCH_FIG12_SPLITS`` / ``REPRO_BENCH_FIG12_DATASETS`` or
``REPRO_BENCH_FULL=1``.
"""

import os


from _bench_lib import write_report
from repro.evaluation import ensemble_improvement_series, format_series

METHODS = ("taglets", "taglets_prune0", "taglets_prune1")
SHOTS_BY_DATASET = {"officehome_product": (1, 5, 20), "officehome_clipart": (1, 5, 20),
                    "fmd": (1, 5, 20), "grocery_store": (1, 5)}


def _splits():
    default = "1,2" if os.environ.get("REPRO_BENCH_FULL", "0") == "1" else "1"
    return [int(s) for s in os.environ.get("REPRO_BENCH_FIG12_SPLITS",
                                           default).split(",") if s.strip()]


def _datasets():
    default = ("officehome_product,officehome_clipart,fmd,grocery_store"
               if os.environ.get("REPRO_BENCH_FULL", "0") == "1"
               else "officehome_product,fmd")
    return [d.strip() for d in os.environ.get("REPRO_BENCH_FIG12_DATASETS",
                                              default).split(",") if d.strip()]


def test_figure12_13(record_cache, bench_grid):
    splits = _splits()
    datasets = _datasets()
    backbone = bench_grid.backbones[0]

    def regenerate():
        records = []
        for dataset in datasets:
            records.extend(record_cache.collect(
                METHODS, [dataset], SHOTS_BY_DATASET[dataset], bench_grid,
                split_seeds=splits))
        return records

    records = regenerate()
    blocks = []
    positive_cells = 0
    total_cells = 0
    for split_seed in splits:
        for dataset in datasets:
            gains = ensemble_improvement_series(records, dataset=dataset,
                                                backbone=backbone,
                                                split_seed=split_seed)
            flattened = {f"{shots}-shot / {prune}": cell
                         for (shots, prune), cell in sorted(gains.items())}
            blocks.append(format_series(
                flattened, title=f"Figures 12/13 — ensemble / end-model gain "
                                 f"({dataset}, split {split_seed})"))
            for cell in gains.values():
                total_cells += 1
                if cell["ensemble_gain"].mean > 0:
                    positive_cells += 1
    write_report("figure12_13_ensemble_gain_splits", "\n\n".join(blocks))
    # Shape check: the ensemble improves over the average module in the vast
    # majority of cells.
    assert positive_cells >= int(0.75 * total_cells)
