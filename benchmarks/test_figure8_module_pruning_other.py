"""Figure 8 — per-module accuracy under pruning for the remaining datasets
(OfficeHome-Clipart, FMD, Grocery Store; split 0).

Same measurement as Figure 5, on the other three tasks.  Grocery Store is
evaluated at 1/5 shots only, as in the paper.
"""

import pytest

from _bench_lib import write_report
from repro.evaluation import format_series, module_accuracy_series

METHODS = ("taglets", "taglets_prune0", "taglets_prune1")
CASES = (("officehome_clipart", (1, 5, 20)),
         ("fmd", (1, 5, 20)),
         ("grocery_store", (1, 5)))


@pytest.mark.parametrize("dataset,shots_list", CASES,
                         ids=[case[0] for case in CASES])
def test_figure8(dataset, shots_list, record_cache, bench_grid):
    backbone = bench_grid.backbones[0]

    def regenerate():
        return record_cache.collect(METHODS, [dataset], shots_list, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    series = module_accuracy_series(records, dataset=dataset, backbone=backbone,
                                    split_seed=0)
    flattened = {module: {f"{shots}s/{prune}": aggregate
                          for (shots, prune), aggregate in cells.items()}
                 for module, cells in series.items()}
    write_report(f"figure8_module_pruning_{dataset}",
                 format_series(flattened,
                               title=f"Figure 8 — module accuracy vs pruning "
                                     f"({dataset}, {backbone})"))

    transfer = series["transfer"]
    min_shots = min(shots_list)
    assert transfer[(min_shots, "no_pruning")].mean >= \
        transfer[(min_shots, "prune_level_1")].mean - 0.05
