"""Figures 10 and 11 — per-module accuracy under pruning on splits 1 and 2.

The appendix repeats the module-level pruning analysis (Figures 5/8) on the
other two train/test splits.  By default this bench covers split 1 on
OfficeHome-Product and FMD; set ``REPRO_BENCH_FIG10_SPLITS=1,2`` and/or
``REPRO_BENCH_FIG10_DATASETS`` (comma-separated) to widen, or
``REPRO_BENCH_FULL=1`` for the paper's full grid.
"""

import os


from _bench_lib import write_report
from repro.evaluation import format_series, module_accuracy_series

METHODS = ("taglets", "taglets_prune0", "taglets_prune1")
SHOTS_BY_DATASET = {"officehome_product": (1, 5, 20), "officehome_clipart": (1, 5, 20),
                    "fmd": (1, 5, 20), "grocery_store": (1, 5)}


def _splits():
    default = "1,2" if os.environ.get("REPRO_BENCH_FULL", "0") == "1" else "1"
    return [int(s) for s in os.environ.get("REPRO_BENCH_FIG10_SPLITS",
                                           default).split(",") if s.strip()]


def _datasets():
    default = ("officehome_product,officehome_clipart,fmd,grocery_store"
               if os.environ.get("REPRO_BENCH_FULL", "0") == "1"
               else "officehome_product,fmd")
    return [d.strip() for d in os.environ.get("REPRO_BENCH_FIG10_DATASETS",
                                              default).split(",") if d.strip()]


def test_figure10_11(record_cache, bench_grid):
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
    for split_seed in splits:
        for dataset in datasets:
            series = module_accuracy_series(records, dataset=dataset,
                                            backbone=backbone,
                                            split_seed=split_seed)
            flattened = {module: {f"{shots}s/{prune}": aggregate
                                  for (shots, prune), aggregate in cells.items()}
                         for module, cells in series.items()}
            blocks.append(format_series(
                flattened, title=f"Figures 10/11 — module accuracy vs pruning "
                                 f"({dataset}, split {split_seed})"))
    write_report("figure10_11_module_pruning_splits", "\n\n".join(blocks))
    assert records
