"""Float32-vs-float64 accuracy parity over the benchmark grid.

ROADMAP open item (closed by this grid): the float32 fast mode was opt-in
until its accuracy was shown to match float64 across workloads.  This test
is the evidence gate — it runs the full pipeline on every target dataset of
the benchmark grid, under both backbones, in both engine dtypes, and
requires the final ensemble and end-model accuracies to agree within a
small tolerance.  Training under float32 takes different round-off paths,
so exact equality is not expected; what matters is that the *quality* of
the system is dtype-invariant.  With the grid covered, the experiment
runner's TAGLETS methods now default to float32
(:func:`repro.evaluation.runner.taglets_method`).
"""

import pytest

from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig
from repro.modules import (MultiTaskConfig, MultiTaskModule, TransferConfig,
                           TransferModule, ZslKgConfig, ZslKgModule)

#: |accuracy(float64) - accuracy(float32)| must stay within this band.
TOLERANCE = 0.1

#: Every target dataset of the benchmark grid, with both pretrained
#: backbones represented across the sweep.
WORKLOADS = [
    ("fmd", "resnet50"),
    ("grocery_store", "resnet50"),
    ("officehome_product", "resnet50"),
    ("officehome_clipart", "bit"),
    ("fmd", "bit"),
]


def _fast_modules():
    return [
        MultiTaskModule(MultiTaskConfig(epochs=6)),
        TransferModule(TransferConfig(aux_epochs=6, target_epochs=15)),
        ZslKgModule(ZslKgConfig(pretrain_epochs=200, max_training_concepts=400,
                                images_per_prototype=6)),
    ]


@pytest.fixture(scope="module", params=WORKLOADS,
                ids=[f"{d}-{b}" for d, b in WORKLOADS])
def parity_accuracies(request, tiny_workspace):
    """(float64, float32) accuracy pairs for one (dataset, backbone) cell."""
    dataset, backbone_name = request.param
    split = tiny_workspace.make_task_split(dataset, shots=5, split_seed=0)
    backbone = tiny_workspace.backbone(backbone_name)
    results = {"num_classes": split.num_classes}
    for dtype in (None, "float32"):
        task = Task.from_split(split, scads=tiny_workspace.scads,
                               backbone=backbone,
                               wanted_num_related_class=3,
                               images_per_related_class=8)
        config = ControllerConfig(end_model=EndModelConfig(epochs=15),
                                  dtype=dtype, seed=0)
        controller = Controller(modules=_fast_modules(), config=config)
        result = controller.run(task)
        results[dtype or "float64"] = {
            "end_model": result.end_model_accuracy(split.test_features,
                                                   split.test_labels),
            "ensemble": result.ensemble_accuracy(split.test_features,
                                                 split.test_labels),
        }
    return f"{dataset}/{backbone_name}", results


class TestFloat32AccuracyParity:
    def test_end_model_accuracy_parity(self, parity_accuracies):
        workload, results = parity_accuracies
        gap = abs(results["float64"]["end_model"]
                  - results["float32"]["end_model"])
        assert gap <= TOLERANCE, (
            f"end-model accuracy diverges between dtypes on {workload}: "
            f"float64 {results['float64']['end_model']:.3f} vs "
            f"float32 {results['float32']['end_model']:.3f}")

    def test_ensemble_accuracy_parity(self, parity_accuracies):
        workload, results = parity_accuracies
        gap = abs(results["float64"]["ensemble"]
                  - results["float32"]["ensemble"])
        assert gap <= TOLERANCE, (
            f"ensemble accuracy diverges between dtypes on {workload}: "
            f"float64 {results['float64']['ensemble']:.3f} vs "
            f"float32 {results['float32']['ensemble']:.3f}")

    def test_both_dtypes_beat_chance(self, parity_accuracies):
        workload, results = parity_accuracies
        chance = 1.0 / results["num_classes"]
        for dtype in ("float64", "float32"):
            accuracy = results[dtype]["end_model"]
            assert accuracy > 1.2 * chance, (
                f"{dtype} end model degenerate on {workload}: "
                f"{accuracy:.3f} (chance {chance:.3f})")
