"""Figure 9 — ensemble and end-model gain for OfficeHome-Clipart, FMD and
Grocery Store (split 0).

Same measurement as Figure 6 on the other three tasks: the ensemble improves
over the average module accuracy regardless of the pruning level, and the end
model stays close to the ensemble.
"""

import pytest

from _bench_lib import write_report
from repro.evaluation import ensemble_improvement_series, format_series

METHODS = ("taglets", "taglets_prune0", "taglets_prune1")
CASES = (("officehome_clipart", (1, 5, 20)),
         ("fmd", (1, 5, 20)),
         ("grocery_store", (1, 5)))


@pytest.mark.parametrize("dataset,shots_list", CASES,
                         ids=[case[0] for case in CASES])
def test_figure9(dataset, shots_list, record_cache, bench_grid):
    backbone = bench_grid.backbones[0]

    def regenerate():
        return record_cache.collect(METHODS, [dataset], shots_list, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    gains = ensemble_improvement_series(records, dataset=dataset, backbone=backbone,
                                        split_seed=0)
    flattened = {f"{shots}-shot / {prune}": cell
                 for (shots, prune), cell in sorted(gains.items())}
    write_report(f"figure9_ensemble_gain_{dataset}",
                 format_series(flattened,
                               title=f"Figure 9 — ensemble / end-model gain "
                                     f"({dataset})"))

    positive = sum(1 for cell in gains.values() if cell["ensemble_gain"].mean > 0)
    assert positive >= len(gains) - 1  # allow one noisy cell on reduced grids
