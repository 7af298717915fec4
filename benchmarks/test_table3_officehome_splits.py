"""Table 3 — OfficeHome-Product and OfficeHome-Clipart on splits 1 and 2.

The appendix repeats Table 1 on two additional train/test splits to show the
trends are split-independent.  By default this bench runs split 1 only (set
``REPRO_BENCH_TABLE3_SPLITS=1,2`` or ``REPRO_BENCH_FULL=1`` for both).
"""

import os

import pytest

from _bench_lib import write_report
from repro.evaluation import format_results_table
from repro.evaluation.runner import TABLE_METHODS, TABLE_PRUNED_METHODS

DATASETS = ("officehome_product", "officehome_clipart")
SHOTS = (1, 5, 20)
METHODS = tuple(TABLE_METHODS) + tuple(TABLE_PRUNED_METHODS)


def _extra_splits():
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        default = "1,2"
    else:
        default = "1"
    raw = os.environ.get("REPRO_BENCH_TABLE3_SPLITS", default)
    return [int(s) for s in raw.split(",") if s.strip()]


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3(dataset, record_cache, bench_grid):
    splits = _extra_splits()

    def regenerate():
        return record_cache.collect(METHODS, [dataset], SHOTS, bench_grid,
                                    split_seeds=splits)

    records = regenerate()
    blocks = []
    for split_seed in splits:
        blocks.append(format_results_table(
            records, dataset=dataset, shots_list=list(SHOTS), methods=list(METHODS),
            backbones=bench_grid.backbones, split_seed=split_seed,
            title=f"Table 3 — {dataset} (split {split_seed})"))
    write_report(f"table3_{dataset}", "\n\n".join(blocks))

    mean = lambda rs: sum(r.accuracy for r in rs) / len(rs)
    taglets = [r for r in records if r.method == "taglets" and r.shots == 1]
    finetune = [r for r in records if r.method == "finetune" and r.shots == 1]
    assert mean(taglets) > mean(finetune)
