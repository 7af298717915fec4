"""Artifact appendix (Appendix B) — the CIFAR-style demo task.

The paper's artifact ships a demo in which the target task is CIFAR-10 with
CIFAR-100 as auxiliary data, and the expectation is that TAGLETS
"significantly outperforms" the fine-tuning baseline (41.5% in the artifact).
Here the demo task is the ``cifar_demo`` synthetic dataset (a generic
10-class task) with the full SCADS as auxiliary data.
"""

from _bench_lib import write_report
from repro.evaluation import format_results_table

METHODS = ("finetune", "taglets")
SHOTS = (5,)


def test_artifact_demo(record_cache, bench_grid):
    def regenerate():
        return record_cache.collect(METHODS, ["cifar_demo"], SHOTS, bench_grid,
                                    split_seeds=[0])

    records = regenerate()
    table = format_results_table(records, dataset="cifar_demo",
                                 shots_list=list(SHOTS), methods=list(METHODS),
                                 backbones=bench_grid.backbones, split_seed=0,
                                 title="Artifact demo — cifar_demo (5-shot)")
    write_report("artifact_demo", table)

    mean = lambda method: sum(r.accuracy for r in records if r.method == method) / \
        max(1, sum(1 for r in records if r.method == method))
    assert mean("taglets") > mean("finetune")
