"""Byte digests of the ``train_sweep`` grid's outputs, one line per task.

Runs the grid of perfbench's ``train_sweep`` workload in one process: the
workspace with 300 filler concepts, 3 related classes with 8 images each,
5 datasets x {1, 5} shots, every task through ``Controller.run`` with graph
replay on and the ZSL-KG pretrain cached from a first run on the first
task.  It first prints the digest of that cold pretrain's ZSL-KG class
encoder (task ``zsl_kg/cold``), then, for each task, the pseudo-label
digest, the end-model digest, one digest per taglet and the task's replay
counters ``(captures, replays, eager_steps, fallbacks)``.

Two checkouts produce the same lines exactly when a change keeps every
output byte.  Run both under the same BLAS thread count (this script pins
it to 1 unless the shell sets one)::

    PYTHONPATH=src python benchmarks/output_digests.py --seed 1 > new.txt
    (cd ../parent && PYTHONPATH=src python ../repo/benchmarks/output_digests.py --seed 1) > old.txt
    diff old.txt new.txt

``benchmarks/byte_identity.py`` runs that comparison for the three
configurations CI checks.
"""

from __future__ import annotations

import argparse
import hashlib

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)

import numpy as np

DATASETS = ("fmd", "grocery_store", "officehome_product",
            "officehome_clipart", "cifar_demo")
SHOTS = (1, 5)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(str((array.shape, array.dtype)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _model_digest(model) -> str:
    state = model.state_dict()
    return _digest(*(state[name] for name in sorted(state)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dtype", choices=("float32", "float64"),
                        default="float32")
    args = parser.parse_args()

    from repro.core import Controller, ControllerConfig, Task
    from repro.kg import GraphSpec
    from repro.modules import ZslKgModule
    from repro.nn import ReplayStats
    from repro.synth import WorldSpec
    from repro.workspace import Workspace, WorkspaceSpec

    workspace = Workspace(WorkspaceSpec(
        graph=GraphSpec(num_filler_concepts=300, seed=0),
        world=WorldSpec(seed=0), scads_images_per_concept=30, seed=0))
    backbone = workspace.backbone("resnet50")
    tasks = []
    for dataset in DATASETS:
        for shots in SHOTS:
            split = workspace.make_task_split(dataset, shots=shots,
                                              split_seed=args.seed)
            tasks.append((f"{dataset}/{shots}", Task.from_split(
                split, scads=workspace.scads, backbone=backbone,
                wanted_num_related_class=3, images_per_related_class=8)))

    def config(stats=None):
        return ControllerConfig(dtype=args.dtype, replay=True, seed=args.seed,
                                replay_stats=stats)

    ZslKgModule._pretrained_cache.clear()
    Controller(modules=["zsl_kg"], config=config()).run(tasks[0][1])
    (_, _, encoder), = ZslKgModule._pretrained_cache.values()
    print(f"zsl_kg/cold encoder="
          f"{_digest(*(encoder[name] for name in sorted(encoder)))}",
          flush=True)
    for name, task in tasks:
        stats = ReplayStats()
        result = Controller(config=config(stats)).run(task)
        taglets = " ".join(f"{t.name}={_model_digest(t.model)}"
                           for t in result.taglets)
        counters = (stats.captures, stats.replays, stats.eager_steps,
                    stats.fallback_count)
        print(f"{name} pseudo={_digest(result.pseudo_labels)} "
              f"end={_model_digest(result.end_model.model)} {taglets} "
              f"replay={counters}", flush=True)


if __name__ == "__main__":
    main()
