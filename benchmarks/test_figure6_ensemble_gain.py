"""Figure 6 — ensemble and end-model gain over the average module accuracy
(OfficeHome-Product).

The paper shows that, for every shot count and pruning level, ensembling the
taglets improves over the average accuracy of the individual modules (by at
least ~7 points in the paper), and that the distilled end model stays close
to the ensemble.
"""

from _bench_lib import write_report
from repro.evaluation import ensemble_improvement_series, format_series

DATASET = "officehome_product"
SHOTS = (1, 5, 20)
METHODS = ("taglets", "taglets_prune0", "taglets_prune1")


def test_figure6(record_cache, bench_grid):
    backbone = bench_grid.backbones[0]

    def regenerate():
        return record_cache.collect(METHODS, [DATASET], SHOTS, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    gains = ensemble_improvement_series(records, dataset=DATASET, backbone=backbone,
                                        split_seed=0)
    flattened = {f"{shots}-shot / {prune}": cell
                 for (shots, prune), cell in sorted(gains.items())}
    write_report("figure6_ensemble_gain_officehome_product",
                 format_series(flattened,
                               title=f"Figure 6 — ensemble / end-model gain over "
                                     f"average module accuracy ({DATASET})"))

    # Shape check: the ensemble improves over the average module in every cell.
    for cell in gains.values():
        assert cell["ensemble_gain"].mean > 0
