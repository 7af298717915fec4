"""Figure 7 — accuracy change when a module is removed from TAGLETS.

The paper removes each of the four modules in turn (1- and 5-shot settings,
all datasets) and plots the distribution of the resulting change in end-model
accuracy.  Negative values mean the removed module was contributing.  The
expected shape: removing any module hurts in at least half of the settings.

By default this bench ablates on FMD and Grocery Store (the two smaller
tasks); set ``REPRO_BENCH_FIG7_DATASETS`` to a comma-separated list to widen.
"""

import os


from _bench_lib import write_report
from repro.evaluation import (format_series, module_removal_deltas,
                              taglets_method)
from repro.modules import DEFAULT_MODULES

SHOTS = (1, 5)


def _datasets():
    raw = os.environ.get("REPRO_BENCH_FIG7_DATASETS", "fmd,grocery_store")
    return [d.strip() for d in raw.split(",") if d.strip()]


def test_figure7(record_cache, bench_grid):
    datasets = _datasets()
    # Register one leave-one-out variant of TAGLETS per module.
    ablated_methods = {}
    for removed in DEFAULT_MODULES:
        name = f"taglets_no_{removed}"
        modules = tuple(m for m in DEFAULT_MODULES if m != removed)
        record_cache.runner.register(taglets_method(name, modules=modules))
        ablated_methods[removed] = name

    def regenerate():
        full = record_cache.collect(["taglets"], datasets, SHOTS, bench_grid,
                                    split_seeds=[0])
        ablated = {removed: record_cache.collect([name], datasets, SHOTS,
                                                 bench_grid, split_seeds=[0])
                   for removed, name in ablated_methods.items()}
        return full, ablated

    full_records, ablated_records = regenerate()
    deltas = module_removal_deltas(full_records, ablated_records)
    write_report("figure7_module_ablation",
                 format_series({m: {"delta": agg} for m, agg in deltas.items()},
                               title="Figure 7 — accuracy change when removing a "
                                     "module (negative = module helps)"))

    assert set(deltas) == set(DEFAULT_MODULES)
    # Shape check: removing at least half of the modules hurts on average.
    hurting = sum(1 for aggregate in deltas.values() if aggregate.mean < 0)
    assert hurting >= len(DEFAULT_MODULES) // 2
