"""Engine and pipeline throughput benchmarks.

Measures the three layers of the training fast path and prints them (the
committed ``BENCH_engine.json`` is a frozen record of earlier runs):

* training steps/sec of the autograd engine — the eager float64 and
  float32 paths vs the graph replay executor;
* inference throughput of a forward that records the backward tape vs one
  under ``no_grad``;
* end-to-end ``Controller.run`` — the eager float64 path, and the float32
  fast path with replay off and on.

Run with ``pytest benchmarks/test_engine_throughput.py`` (the ``bench``
marker keeps it out of tier-1).
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from _bench_lib import print_bench_row

from repro.core import Controller, ControllerConfig, Task
from repro.kg import GraphSpec
from repro.modules import ZslKgModule
from repro.nn import (MLP, Adam, GraphReplay, Tensor, TrainConfig,
                      default_dtype, leaf_chain, no_grad, softmax_rows,
                      train_classifier, use_graph_replay)
from repro.nn.modules import Linear, Module, ReLU
from repro.synth import WorldSpec
from repro.workspace import Workspace, WorkspaceSpec

# --------------------------------------------------------------------------- #
# Layer 1: raw engine throughput
# --------------------------------------------------------------------------- #
# Four training-loop shapes, each measured on the eager paths and on the
# graph replay executor (``replay_*`` rows):
#
# * ``backbone_shaped`` — the large MLP of PR 1's baseline (BLAS-dominated,
#   so replay's per-step Python savings show least here);
# * ``task_shaped``     — the loop the pipeline actually runs all day: the
#   task backbone (24 -> 48 -> 32) plus head on a few-shot dataset;
# * ``pretrain_shaped`` — the ZSL-KG class-encoder pretrain step (full-batch
#   L2 + Adam, the hot spot called out by ROADMAP), stepped exactly as
#   ``zsl_kg.py`` does (training-loss scalar elided under replay).
TRAIN_N, TRAIN_D, TRAIN_C = 512, 64, 10
TRAIN_EPOCHS = 20

TASK_N, TASK_D, TASK_C = 50, 24, 10
TASK_EPOCHS = 120

PRE_N, PRE_D, PRE_H, PRE_OUT = 30, 64, 128, 32
PRE_EPOCHS = 600

# ``fixmatch_shaped`` — the two-view consistency step (the most expensive
# module in the pipeline): a pseudo-label inference forward on the weak
# unlabeled view plus one compiled DAG step (shared model on labeled-weak +
# unlabeled-strong views, weighted-sum loss), driven exactly as
# ``modules/fixmatch.py`` drives it.
FIX_L, FIX_U, FIX_D, FIX_C = 20, 64, 24, 10
FIX_STEPS = 300


def _dtype_scope(dtype):
    return (default_dtype(dtype) if dtype is not None
            else contextlib.nullcontext())


def _train_once(dtype=None, replay=False, shape="backbone") -> float:
    """Train one loop shape and return wall-clock seconds."""
    rng = np.random.default_rng(0)
    if shape == "backbone":
        n, d, c, epochs, batch, hidden = (TRAIN_N, TRAIN_D, TRAIN_C,
                                          TRAIN_EPOCHS, 64, [128, 128])
    else:
        n, d, c, epochs, batch, hidden = (TASK_N, TASK_D, TASK_C,
                                          TASK_EPOCHS, 32, [48, 32])
    features = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    start = time.perf_counter()
    with _dtype_scope(dtype), use_graph_replay(replay):
        model = MLP(d, hidden, c, rng=np.random.default_rng(1))
        train_classifier(model, features, labels,
                         TrainConfig(epochs=epochs, batch_size=batch, seed=0,
                                     momentum=0.9))
    return time.perf_counter() - start


class _ClassEncoder(Module):
    """The ZSL-KG GraphClassEncoder architecture."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(PRE_D, PRE_H, rng=rng)
        self.activation = ReLU()
        self.fc2 = Linear(PRE_H, PRE_OUT, rng=rng)

    def forward(self, x):
        return self.fc2(self.activation(self.fc1(x)))


def _pretrain_once(dtype=None, replay=False) -> float:
    """The ZSL-KG pretrain step loop, as ``zsl_kg._pretrain`` drives it."""
    with _dtype_scope(dtype), use_graph_replay(replay):
        dt = np.float32 if dtype is not None else np.float64
        train_x = np.random.default_rng(2).normal(size=(PRE_N, PRE_D)).astype(dt)
        train_y = np.random.default_rng(3).normal(size=(PRE_N, PRE_OUT)).astype(dt)
        encoder = _ClassEncoder(np.random.default_rng(4))
        optimizer = Adam(encoder.parameters(), lr=1e-2)
        stepper = GraphReplay(encoder, optimizer, loss="l2")
        start = time.perf_counter()
        for _ in range(PRE_EPOCHS):
            stepper.step(train_x, train_y, compute_loss=False)
        return time.perf_counter() - start


def _fixmatch_once(dtype=None, replay=False) -> float:
    """The FixMatch two-view consistency loop, as ``FixMatchModule`` runs it."""
    from repro.modules.fixmatch import consistency_step
    from repro.nn import SGD

    with _dtype_scope(dtype), use_graph_replay(replay):
        dt = np.dtype(np.float32 if dtype is not None else np.float64)
        rng = np.random.default_rng(5)
        labeled_x = rng.normal(size=(FIX_L, FIX_D)).astype(dt)
        labeled_y = rng.integers(0, FIX_C, size=FIX_L)
        unlabeled_x = rng.normal(size=(FIX_U, FIX_D)).astype(dt)
        strong_x = rng.normal(size=(FIX_U, FIX_D)).astype(dt)
        cons_w = np.asarray(1.0, dtype=dt)
        model = MLP(FIX_D, [48, 32], FIX_C, rng=np.random.default_rng(6))
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9,
                        nesterov=True)
        stepper = GraphReplay(model, optimizer)
        pseudo_forward = leaf_chain(model, FIX_D, dt)
        start = time.perf_counter()
        with stepper.epoch():
            for _ in range(FIX_STEPS):
                consistency_step(stepper, pseudo_forward, labeled_x, labeled_y,
                                 unlabeled_x, strong_x, cons_w, 0.6, dt)
        return time.perf_counter() - start


def _measure(fn, repeats=7, **kwargs) -> float:
    """Best-of-``repeats`` wall clock (shared-CPU noise suppression)."""
    return min(fn(**kwargs) for _ in range(repeats))


def _loop_rows(fn, steps, **extra) -> dict:
    timings = {
        "eager_float64": _measure(fn, **extra),
        "eager_float32": _measure(fn, dtype=np.float32, **extra),
        "replay_float64": _measure(fn, replay=True, **extra),
        "replay_float32": _measure(fn, dtype=np.float32, replay=True, **extra),
    }
    rows = {name: round(steps / seconds, 1) for name, seconds in timings.items()}
    rows["replay_float32_speedup_vs_eager_float32"] = round(
        timings["eager_float32"] / timings["replay_float32"], 2)
    return rows


def test_training_steps_per_sec():
    # Warm up BLAS/caches, then measure.
    _train_once()
    result = {
        "backbone_shaped": dict(
            workload=f"MLP {TRAIN_D}->[128,128]->{TRAIN_C}, batch 64, "
                     f"n={TRAIN_N} (PR 1 baseline shape)",
            **_loop_rows(_train_once, TRAIN_EPOCHS * (TRAIN_N // 64),
                         shape="backbone")),
        "task_shaped": dict(
            workload=f"MLP {TASK_D}->[48,32]->{TASK_C}, batch 32, n={TASK_N} "
                     "(few-shot fine-tuning shape)",
            **_loop_rows(_train_once, TASK_EPOCHS * 2, shape="task")),
        "pretrain_shaped": dict(
            workload=f"encoder {PRE_D}->{PRE_H}->{PRE_OUT}, full batch "
                     f"{PRE_N}, Adam+L2 (ZSL-KG pretrain shape)",
            **_loop_rows(_pretrain_once, PRE_EPOCHS)),
        "fixmatch_shaped": dict(
            workload=f"two-view consistency step: MLP {FIX_D}->[48,32]->"
                     f"{FIX_C}, labeled {FIX_L} + unlabeled {FIX_U}, "
                     "pseudo-label forward + weighted-sum DAG step",
            **_loop_rows(_fixmatch_once, FIX_STEPS)),
    }
    print_bench_row("training_steps_per_sec", result)
    # The replay executor's acceptance bar: >=1.5x over the float32 eager
    # path on the overhead-dominated pipeline loops (the big-BLAS backbone
    # shape reports its honest, smaller gain alongside).
    replay_gains = [result[k]["replay_float32_speedup_vs_eager_float32"]
                    for k in ("task_shaped", "pretrain_shaped")]
    assert max(replay_gains) >= 1.5, replay_gains
    assert min(replay_gains) >= 1.2, replay_gains
    # The DAG generalization's acceptance bar: the FixMatch two-view step
    # must replay >=1.2x over eager float32.
    assert result["fixmatch_shaped"][
        "replay_float32_speedup_vs_eager_float32"] >= 1.2, \
        result["fixmatch_shaped"]


def test_inference_throughput():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(4096, TRAIN_D))
    model = MLP(TRAIN_D, [128, 128], TRAIN_C, rng=np.random.default_rng(3))

    def measure(scope, repeats: int = 20) -> float:
        """Examples/sec of the ``predict_proba`` forward under ``scope``."""
        with scope:
            softmax_rows(model(Tensor(features)).data)  # warm-up
            start = time.perf_counter()
            for _ in range(repeats):
                softmax_rows(model(Tensor(features)).data)
            elapsed = time.perf_counter() - start
        return repeats * len(features) / elapsed

    result = {
        # the parameters require grad, so this forward records the tape
        "grad_tape_examples_per_sec": round(
            measure(contextlib.nullcontext()), 0),
        "no_grad_examples_per_sec": round(measure(no_grad()), 0),
    }
    result["no_grad_speedup"] = round(
        result["no_grad_examples_per_sec"]
        / result["grad_tape_examples_per_sec"], 2)
    print_bench_row("inference_throughput", result)
    assert result["no_grad_speedup"] > 1.0


# --------------------------------------------------------------------------- #
# Layer 2: end-to-end Controller.run on the synthetic workload
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench_task():
    spec = WorkspaceSpec(graph=GraphSpec(num_filler_concepts=300, seed=0),
                         world=WorldSpec(seed=0),
                         scads_images_per_concept=30, seed=0)
    workspace = Workspace(spec)
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    return Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"),
                           wanted_num_related_class=3,
                           images_per_related_class=8)


def _run_controller(task, dtype, replay: bool = True,
                    repeats: int = 3) -> float:
    """Best-of-``repeats`` wall clock of a full paper-default-budget run.

    Best-of-N because the reference container is a single shared CPU: the
    minimum is the least-perturbed observation of each path.
    """
    timings = []
    for _ in range(repeats):
        # Clear the ZSL-KG pretraining cache so every run trains from scratch.
        ZslKgModule._pretrained_cache.clear()
        config = ControllerConfig(dtype=dtype, replay=replay, seed=0)
        controller = Controller(config=config)  # the four default modules
        start = time.perf_counter()
        controller.run(task)
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_controller_fast_path(bench_task):
    """The float32 fast path, with the replay executor's share of it."""
    # Warm BLAS/caches once before timing anything.
    _run_controller(bench_task, dtype=None, repeats=1)
    float64_seconds = _run_controller(bench_task, dtype=None)
    fast_seconds = _run_controller(bench_task, dtype="float32")
    fast_noreplay_seconds = _run_controller(bench_task, dtype="float32",
                                            replay=False)
    print_bench_row("controller_run", {
        "workload": ("fmd 5-shot, tiny workspace, four paper-default modules "
                     "+ end model, best of 3 runs"),
        "float64_sec": round(float64_seconds, 2),
        "fast_float32_noreplay_sec": round(fast_noreplay_seconds, 2),
        "fast_float32_sec": round(fast_seconds, 2),
        "speedup_float32_vs_float64": round(float64_seconds / fast_seconds, 2),
        "speedup_replay_vs_noreplay": round(
            fast_noreplay_seconds / fast_seconds, 2),
    })
    print(f"\nController.run: float64 {float64_seconds:.2f}s -> "
          f"fast {fast_seconds:.2f}s (replay contribution "
          f"{fast_noreplay_seconds / fast_seconds:.2f}x)")
    # The replay executor must not regress the end-to-end fast path.
    assert fast_seconds <= fast_noreplay_seconds * 1.05, (
        f"replay-on fast path ({fast_seconds:.2f}s) regressed vs replay-off "
        f"({fast_noreplay_seconds:.2f}s)")
