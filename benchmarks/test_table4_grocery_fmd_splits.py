"""Table 4 — Grocery Store and FMD on splits 1 and 2.

The appendix repeats Table 2 on two additional splits.  By default this bench
runs split 1 only (``REPRO_BENCH_TABLE4_SPLITS=1,2`` or ``REPRO_BENCH_FULL=1``
for both).  Grocery Store reuses its predetermined test set across splits, as
in the real dataset.
"""

import os

import pytest

from _bench_lib import write_report
from repro.evaluation import format_results_table
from repro.evaluation.runner import TABLE_METHODS, TABLE_PRUNED_METHODS

METHODS = tuple(TABLE_METHODS) + tuple(TABLE_PRUNED_METHODS)
CASES = (("grocery_store", (1, 5)), ("fmd", (1, 5, 20)))


def _extra_splits():
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        default = "1,2"
    else:
        default = "1"
    raw = os.environ.get("REPRO_BENCH_TABLE4_SPLITS", default)
    return [int(s) for s in raw.split(",") if s.strip()]


@pytest.mark.parametrize("dataset,shots_list", CASES,
                         ids=[case[0] for case in CASES])
def test_table4(dataset, shots_list, record_cache, bench_grid):
    splits = _extra_splits()

    def regenerate():
        return record_cache.collect(METHODS, [dataset], shots_list, bench_grid,
                                    split_seeds=splits)

    records = regenerate()
    blocks = []
    for split_seed in splits:
        blocks.append(format_results_table(
            records, dataset=dataset, shots_list=list(shots_list),
            methods=list(METHODS), backbones=bench_grid.backbones,
            split_seed=split_seed,
            title=f"Table 4 — {dataset} (split {split_seed})"))
    write_report(f"table4_{dataset}", "\n\n".join(blocks))

    mean = lambda rs: sum(r.accuracy for r in rs) / len(rs)
    taglets = [r for r in records if r.method == "taglets" and r.shots == 1]
    finetune = [r for r in records if r.method == "finetune" and r.shots == 1]
    assert mean(taglets) > mean(finetune)
