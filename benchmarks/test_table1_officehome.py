"""Table 1 — OfficeHome-Product and OfficeHome-Clipart, split 0.

Regenerates the paper's Table 1: accuracy of the baselines, TAGLETS, and
TAGLETS with pruned SCADS for 1/5/20 shots on the two OfficeHome variants.
The paper's qualitative findings this bench should reproduce:

* TAGLETS has the best accuracy at 1 and 5 shots for both datasets,
* at 20 shots the methods are roughly tied,
* pruning SCADS lowers TAGLETS' accuracy but it stays competitive,
* OfficeHome-Clipart (strong domain shift) is harder than Product.
"""

import pytest

from _bench_lib import write_report
from repro.evaluation import format_results_table
from repro.evaluation.runner import TABLE_METHODS, TABLE_PRUNED_METHODS

DATASETS = ("officehome_product", "officehome_clipart")
SHOTS = (1, 5, 20)
METHODS = tuple(TABLE_METHODS) + tuple(TABLE_PRUNED_METHODS)


@pytest.mark.parametrize("dataset", DATASETS)
def test_table1(dataset, record_cache, bench_grid):
    def regenerate():
        return record_cache.collect(METHODS, [dataset], SHOTS, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    table = format_results_table(records, dataset=dataset, shots_list=list(SHOTS),
                                 methods=list(METHODS),
                                 backbones=bench_grid.backbones, split_seed=0,
                                 title=f"Table 1 — {dataset} (split 0)")
    write_report(f"table1_{dataset}", table)

    taglets = [r for r in records if r.method == "taglets" and r.shots == 1]
    finetune = [r for r in records if r.method == "finetune" and r.shots == 1]
    assert taglets and finetune
    # Qualitative shape check: TAGLETS wins the 1-shot setting on average.
    mean = lambda rs: sum(r.accuracy for r in rs) / len(rs)
    assert mean(taglets) > mean(finetune)
