"""Replay smoke check for CI: the FixMatch two-view loop, the ZSL-KG
pretrain and the multi-task joint step must replay, and a full run must
share the intermediate phase without changing a byte.

Runs the FixMatch consistency loop (pseudo-label forward + two-view
weighted-sum step, exactly as ``repro.modules.fixmatch`` drives it) with the
graph replay executor forced on, and fails if:

* any step falls back to eager (``ReplayStats.fallback_count > 0``);
* the replayed loop is slower than the fused eager loop (ratio < 1.0);
* the replayed parameters are not bit-identical to the eager ones.

It then pretrains the ZSL-KG class encoder on the tiny workspace (the
benchmark world) in float32, once with replay (whose ReLU runs in place over
the first layer's output) and once eagerly, and fails on any replay fallback
or on any weight byte that differs between the two.  Last, it trains the
multi-task module on a 1-shot fmd task of the same world, in float32, with
replay on and off, with the same two failure conditions.  Finally it runs
one ``Controller.run`` (float32, replay on) on a 5-shot fmd task and fails
on any replay fallback, if the intermediate phase (Eq. 1) trained more than
once, or if the Transfer or FixMatch taglet's weight bytes differ from that
module trained alone on a private copy of the run's selection.

Perf ratios are advisory on shared CI runners (the workflow step uses
``continue-on-error``); the fallback and bit-identity checks are exact
everywhere.  Run with ``PYTHONPATH=src python benchmarks/replay_smoke.py``.
"""

from __future__ import annotations

import sys
import time

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)

import numpy as np

from repro.modules.fixmatch import consistency_step
from repro.nn import (MLP, GraphReplay, ReplayStats, SGD,
                      collect_replay_stats, default_dtype, leaf_chain,
                      use_graph_replay)

STEPS = 150
L, U, D, C = 20, 64, 24, 10


def _run_loop(replay: bool, stats: ReplayStats):
    """The FixMatch two-view loop; returns (params, wall-clock seconds)."""
    with default_dtype(np.float32), use_graph_replay(replay), \
            collect_replay_stats(stats):
        dt = np.dtype(np.float32)
        rng = np.random.default_rng(0)
        labeled_x = rng.normal(size=(L, D)).astype(dt)
        labeled_y = rng.integers(0, C, size=L)
        unlabeled_x = rng.normal(size=(U, D)).astype(dt)
        strong_x = rng.normal(size=(U, D)).astype(dt)
        cons_w = np.asarray(1.0, dtype=dt)
        model = MLP(D, [48, 32], C, rng=np.random.default_rng(1))
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9,
                        nesterov=True)
        stepper = GraphReplay(model, optimizer)
        pseudo_forward = leaf_chain(model, D, dt)
        start = time.perf_counter()
        with stepper.epoch():
            for _ in range(STEPS):
                consistency_step(stepper, pseudo_forward, labeled_x, labeled_y,
                                 unlabeled_x, strong_x, cons_w, 0.6, dt)
        elapsed = time.perf_counter() - start
        return [p.data.copy() for p in model.parameters()], elapsed


def _pretrain_zsl_kg(workspace, backbone, replay: bool,
                     stats: ReplayStats):
    """The ZSL-KG class-encoder pretrain; returns its weights."""
    from repro.modules import ZslKgModule

    ZslKgModule._pretrained_cache.clear()
    with default_dtype(np.float32), use_graph_replay(replay), \
            collect_replay_stats(stats):
        state = ZslKgModule()._pretrain(workspace.scads, backbone, seed=0)
    ZslKgModule._pretrained_cache.clear()
    return state


def _bench_workspace():
    from repro.kg import GraphSpec
    from repro.synth import WorldSpec
    from repro.workspace import Workspace, WorkspaceSpec

    return Workspace(WorkspaceSpec(
        graph=GraphSpec(num_filler_concepts=300, seed=0),
        world=WorldSpec(seed=0), scads_images_per_concept=30, seed=0))


def _check_zsl_kg_pretrain(workspace) -> list:
    backbone = workspace.backbone("resnet50")
    stats = ReplayStats()
    replayed = _pretrain_zsl_kg(workspace, backbone, True, stats)
    eager = _pretrain_zsl_kg(workspace, backbone, False, ReplayStats())
    print(f"zsl-kg pretrain replay stats: {stats}")
    failures = []
    if stats.fallback_count or stats.eager_steps:
        failures.append(f"zsl-kg pretrain fell back to eager: "
                        f"{stats.fallbacks}")
    if stats.replays == 0:
        failures.append("zsl-kg pretrain replayed nothing")
    if list(replayed) != list(eager) or any(
            replayed[name].tobytes() != eager[name].tobytes()
            for name in eager):
        failures.append("zsl-kg pretrain weights differ from eager")
    return failures


def _train_multitask(data, replay: bool, stats: ReplayStats):
    """The multi-task module's taglet weights."""
    from repro.modules import MultiTaskModule

    with default_dtype(np.float32), use_graph_replay(replay), \
            collect_replay_stats(stats):
        taglet = MultiTaskModule().train(data)
    return taglet.model.state_dict()


def _check_multitask(workspace) -> list:
    from repro.modules import ModuleInput

    split = workspace.make_task_split("fmd", shots=1, split_seed=0)
    auxiliary = workspace.scads.select(split.classes, num_related_concepts=3,
                                       images_per_concept=8,
                                       rng=np.random.default_rng(0))
    data = ModuleInput(classes=split.classes,
                       labeled_features=split.labeled_features,
                       labeled_labels=split.labeled_labels,
                       unlabeled_features=split.unlabeled_features,
                       auxiliary=auxiliary,
                       backbone=workspace.backbone("resnet50"), seed=0)
    stats = ReplayStats()
    replayed = _train_multitask(data, True, stats)
    eager = _train_multitask(data, False, ReplayStats())
    print(f"multitask replay stats: {stats}")
    failures = []
    if stats.fallback_count or stats.eager_steps:
        failures.append(f"multitask fell back to eager: {stats.fallbacks}")
    if stats.replays == 0:
        failures.append("multitask replayed nothing")
    if list(replayed) != list(eager) or any(
            replayed[name].tobytes() != eager[name].tobytes()
            for name in eager):
        failures.append("multitask weights differ from eager")
    return failures


def _check_shared_phase(workspace) -> list:
    from dataclasses import replace

    from repro.core import Controller, ControllerConfig, Task
    from repro.modules import FixMatchModule, ModuleInput, TransferModule

    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"),
                           wanted_num_related_class=3,
                           images_per_related_class=8)
    stats = ReplayStats()
    config = ControllerConfig(dtype="float32", replay=True, seed=0,
                              replay_stats=stats)
    result = Controller(config=config).run(task)
    print(f"controller run replay stats: {stats}")
    failures = []
    if stats.fallback_count or stats.eager_steps:
        failures.append(f"controller run fell back to eager: "
                        f"{stats.fallbacks}")
    phases = len(result.auxiliary._fine_tuned)
    if phases != 1:
        failures.append(f"intermediate phase trained {phases} times, not once")
    for module in (TransferModule(), FixMatchModule()):
        data = ModuleInput(classes=task.classes,
                           labeled_features=task.labeled_features,
                           labeled_labels=task.labeled_labels,
                           unlabeled_features=task.unlabeled_features,
                           auxiliary=replace(result.auxiliary),
                           backbone=task.backbone, scads=task.scads,
                           seed=config.seed)
        with default_dtype(np.float32), use_graph_replay(True):
            alone = module.train(data).model.state_dict()
        shared = result.taglet(module.name).model.state_dict()
        if list(shared) != list(alone) or any(
                shared[name].tobytes() != alone[name].tobytes()
                for name in alone):
            failures.append(f"{module.name} weights differ from its run on "
                            "a private selection")
    return failures


def main() -> int:
    replay_stats = ReplayStats()
    eager_stats = ReplayStats()
    # Warm-up, then best-of-3 on each path (shared-runner noise suppression).
    _run_loop(True, ReplayStats())
    replay_secs, eager_secs = [], []
    for _ in range(3):
        replay_params, secs = _run_loop(True, replay_stats)
        replay_secs.append(secs)
        eager_params, secs = _run_loop(False, eager_stats)
        eager_secs.append(secs)
    ratio = min(eager_secs) / min(replay_secs)

    print(f"replay stats: {replay_stats}")
    print(f"replay {STEPS / min(replay_secs):.0f} steps/s, "
          f"eager {STEPS / min(eager_secs):.0f} steps/s, "
          f"ratio {ratio:.2f}x")

    failures = []
    if replay_stats.fallback_count or replay_stats.eager_steps:
        failures.append(f"replay fell back to eager: {replay_stats.fallbacks}")
    if replay_stats.replays == 0:
        failures.append("nothing replayed")
    for got, want in zip(replay_params, eager_params):
        if not np.array_equal(got, want):
            failures.append("replayed parameters differ from eager")
            break
    if ratio < 1.0:
        failures.append(f"replay slower than eager ({ratio:.2f}x < 1.0x)")
    workspace = _bench_workspace()
    failures += _check_zsl_kg_pretrain(workspace)
    failures += _check_multitask(workspace)
    failures += _check_shared_phase(workspace)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("replay smoke: OK (zero fallbacks, bit-identical, "
              f"{ratio:.2f}x; zsl-kg pretrain, multitask and the shared "
              "intermediate phase byte-identical)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
