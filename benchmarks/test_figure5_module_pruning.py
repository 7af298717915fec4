"""Figure 5 — per-module accuracy under pruning on OfficeHome-Product.

For the Multi-task, Transfer, FixMatch and ZSL-KG modules (ResNet backbone),
the paper plots accuracy at 1/5/20 shots for no pruning, prune level 0 and
prune level 1.  Expected shape:

* modules benefit from closely-related auxiliary data (accuracy drops as the
  pruning level increases),
* the benefit shrinks as the number of labeled shots grows,
* ZSL-KG is invariant to the amount of labeled data.
"""

from _bench_lib import write_report
from repro.evaluation import format_series, module_accuracy_series

DATASET = "officehome_product"
SHOTS = (1, 5, 20)
METHODS = ("taglets", "taglets_prune0", "taglets_prune1")


def test_figure5(record_cache, bench_grid):
    backbone = bench_grid.backbones[0]

    def regenerate():
        return record_cache.collect(METHODS, [DATASET], SHOTS, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    series = module_accuracy_series(records, dataset=DATASET, backbone=backbone,
                                    split_seed=0)
    flattened = {module: {f"{shots}s/{prune}": aggregate
                          for (shots, prune), aggregate in cells.items()}
                 for module, cells in series.items()}
    write_report("figure5_module_pruning_officehome_product",
                 format_series(flattened,
                               title=f"Figure 5 — module accuracy vs pruning "
                                     f"({DATASET}, {backbone})"))

    # Shape checks: at the 1-shot setting at least one SCADS-consuming module
    # clearly loses accuracy when the auxiliary data is pruned to level 1
    # (single-seed per-module comparisons are noisy, so we check the effect
    # exists rather than requiring it for every module), and ZSL-KG is
    # unaffected by the number of shots.
    drops = [series[m][(1, "no_pruning")].mean - series[m][(1, "prune_level_1")].mean
             for m in ("multitask", "transfer", "fixmatch")]
    assert max(drops) > 0.03
    zsl = series["zsl_kg"]
    assert abs(zsl[(1, "no_pruning")].mean - zsl[(20, "no_pruning")].mean) < 0.05
