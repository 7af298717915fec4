"""Training workloads: ``Controller.run`` cold and as a warm task sweep.

The untraced path calls ``Controller.run`` exactly as a user does.  The
traced path replays the same pipeline stage by stage through the public
API (SCADS selection, each module's ``train``, the ensemble's pseudo
labels, distillation) with a span around each stage, and must reproduce
``Controller.run`` bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from common import Context, median, timed_setups
from hostspeed import SpeedProbe
from spans import Tracer

DATASETS = ("fmd", "grocery_store", "officehome_product",
            "officehome_clipart", "cifar_demo")
SHOTS = (1, 5)
#: the reduced grid of the benchmark's own tests
SHORT_GRID = (("fmd", 1), ("cifar_demo", 5))


@dataclass
class BenchTask:
    name: str
    split: object
    task: object


@dataclass
class Outcome:
    """What a run must reproduce: pseudo labels, accuracy, replay counts."""

    pseudo_labels: np.ndarray
    accuracy: float
    chance: float
    replay: Tuple[int, int, int, int]   # captures, replays, eager, fallbacks

    def same_as(self, other: "Outcome") -> bool:
        return (np.array_equal(self.pseudo_labels, other.pseudo_labels)
                and self.accuracy == other.accuracy
                and self.replay == other.replay)


def build_workspace():
    """The tiny bench workspace: 300 filler concepts, 30 images each.

    It is the same world on every seed, so every run does the same amount
    of work; ``--seed`` picks the task splits, the controller seed and the
    requests.
    """
    from repro.kg import GraphSpec
    from repro.synth import WorldSpec
    from repro.workspace import Workspace, WorkspaceSpec

    spec = WorkspaceSpec(graph=GraphSpec(num_filler_concepts=300, seed=0),
                         world=WorldSpec(seed=0),
                         scads_images_per_concept=30, seed=0)
    return Workspace(spec)


def make_tasks(workspace, grid, seed: int) -> List[BenchTask]:
    from repro.core import Task

    backbone = workspace.backbone("resnet50")
    tasks = []
    for dataset, shots in grid:
        split = workspace.make_task_split(dataset, shots=shots,
                                          split_seed=seed)
        task = Task.from_split(split, scads=workspace.scads, backbone=backbone,
                               wanted_num_related_class=3,
                               images_per_related_class=8)
        tasks.append(BenchTask(f"{dataset}/{shots}", split, task))
    return tasks


def controller_config(seed: int, replay_stats=None):
    from repro.core import ControllerConfig
    return ControllerConfig(dtype="float32", replay=True, seed=seed,
                            replay_stats=replay_stats)


def clear_pretrain_cache() -> None:
    from repro.modules import ZslKgModule
    ZslKgModule._pretrained_cache.clear()


def pretrain_cache_size() -> int:
    from repro.modules import ZslKgModule
    return len(ZslKgModule._pretrained_cache)


def _replay_counts(stats) -> Tuple[int, int, int, int]:
    return (stats.captures, stats.replays, stats.eager_steps,
            stats.fallback_count)


def run_controller(bench: BenchTask, seed: int):
    """One ``Controller.run`` as a user calls it; returns (result, outcome)."""
    from repro.core import Controller
    from repro.nn import ReplayStats

    stats = ReplayStats()
    result = Controller(config=controller_config(seed, stats)).run(bench.task)
    return result, _outcome(bench, result.pseudo_labels, result.end_model,
                            stats)


def _outcome(bench: BenchTask, pseudo_labels, end_model, stats) -> Outcome:
    split = bench.split
    accuracy = end_model.accuracy(split.test_features, split.test_labels)
    return Outcome(pseudo_labels, float(accuracy),
                   1.0 / bench.task.num_classes, _replay_counts(stats))


def run_staged(bench: BenchTask, seed: int, tracer: Tracer) -> Outcome:
    """``Controller.run`` replayed stage by stage, one span per stage."""
    from repro.core import Controller
    from repro.distill import train_end_model
    from repro.ensemble import TagletEnsemble
    from repro.modules import ModuleInput
    from repro.nn import (ReplayStats, collect_replay_stats, default_dtype,
                          use_graph_replay)

    stats = ReplayStats()
    config = controller_config(seed, stats)
    controller = Controller(config=config)
    task = bench.task
    with tracer.span("controller.run"), \
            default_dtype(config.dtype), use_graph_replay(config.replay), \
            collect_replay_stats(stats):
        with tracer.span("scads.select"):
            auxiliary = controller.select_auxiliary_data(task)
        taglets = []
        for module in controller.modules:
            data = ModuleInput(classes=task.classes,
                               labeled_features=task.labeled_features,
                               labeled_labels=task.labeled_labels,
                               unlabeled_features=task.unlabeled_features,
                               auxiliary=auxiliary, backbone=task.backbone,
                               scads=task.scads, seed=config.seed)
            with tracer.span(f"modules.{module.name}.train"):
                taglets.append(module.train(data))
        ensemble = TagletEnsemble(taglets)
        with tracer.span("ensemble.pseudo_label"):
            pseudo_labels = ensemble.predict_proba(task.unlabeled_features,
                                                   batch_size=None)
        with tracer.span("distill.train"):
            end_model = train_end_model(
                backbone=task.backbone,
                labeled_features=task.labeled_features,
                labeled_labels=task.labeled_labels,
                pseudo_features=task.unlabeled_features,
                pseudo_probabilities=pseudo_labels,
                num_classes=task.num_classes,
                config=config.end_model, seed=config.seed)
    return _outcome(bench, pseudo_labels, end_model, stats)


def layer_metrics(tracer: Tracer, outcomes: List[Outcome],
                  passes: int) -> Dict[str, float]:
    """Per-pass stage seconds and replay counters of the staged passes."""
    from repro.modules import DEFAULT_MODULES

    stages = (["scads.select"]
              + [f"modules.{name}.train" for name in DEFAULT_MODULES]
              + ["ensemble.pseudo_label", "distill.train"])
    layers = {f"{stage}_s": tracer.total(stage) / passes for stage in stages}
    captures = sum(o.replay[0] for o in outcomes)
    replays = sum(o.replay[1] for o in outcomes)
    eager = sum(o.replay[2] for o in outcomes)
    layers.update({
        "nn.replay.captures": captures / passes,
        "nn.replay.replays": replays / passes,
        "nn.replay.fallbacks": sum(o.replay[3] for o in outcomes) / passes,
        "nn.replay.replay_ratio": replays / max(1, captures + replays + eager),
    })
    return layers


def check_outcome(ctx: Context, outcome: Outcome) -> None:
    ctx.checks.expect("train.replay_fallbacks_zero", outcome.replay[3] == 0,
                      f"replay fallbacks {outcome.replay}")
    ctx.checks.expect("train.accuracy_above_chance",
                      outcome.accuracy > outcome.chance,
                      f"accuracy {outcome.accuracy} <= chance "
                      f"{outcome.chance}")


def trace_training(ctx: Context, tracer: Tracer, benches: List[BenchTask],
                   references: List[Outcome], cold: bool) -> float:
    """One traced staged pass over ``benches``; checks it against the
    untraced ``Controller.run`` outcomes and records the layer metrics.
    Returns the pass's wall seconds."""
    outcomes = []
    start = time.perf_counter()
    for bench, reference in zip(benches, references):
        if cold:
            clear_pretrain_cache()
        outcome = run_staged(bench, ctx.seed, tracer)
        ctx.checks.expect("train.staged_matches_controller_run",
                          outcome.same_as(reference),
                          f"{bench.name}: staged replay differs from "
                          "Controller.run")
        check_outcome(ctx, outcome)
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    ctx.layers.update(layer_metrics(tracer, outcomes, passes=1))
    return wall


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def _timed_passes(ctx: Context, benches: List[BenchTask], cold: bool,
                  budget: float):
    """Repeat the pass until ``budget`` seconds have gone.

    Returns each task's host-speed normalised run seconds, per-pass wall
    seconds, the first pass's outcomes and the first pass's results.
    """
    runs: List[List[float]] = [[] for _ in benches]
    passes: List[float] = []
    first: List[Outcome] = []
    results = []
    start = time.perf_counter()
    # Two passes at least, so the determinism check always runs.
    while len(passes) < 2 or time.perf_counter() - start < budget:
        pass_start = time.perf_counter()
        for index, bench in enumerate(benches):
            if cold:
                clear_pretrain_cache()
            ctx.attempted += 1
            with SpeedProbe() as probe:
                result, outcome = run_controller(bench, ctx.seed)
            runs[index].append(probe.seconds)
            if cold:
                ctx.checks.expect("train_cold.pretrain_cache_one_entry",
                                  pretrain_cache_size() == 1,
                                  f"{pretrain_cache_size()} cache entries")
            check_outcome(ctx, outcome)
            if len(first) < len(benches):
                first.append(outcome)
                results.append(result)
            else:
                ctx.checks.expect("train.passes_deterministic",
                                  outcome.same_as(first[index]),
                                  f"{bench.name} changed between passes")
        passes.append(time.perf_counter() - pass_start)
    return runs, passes, first, results


def _report(ctx: Context, runs, passes, outcomes) -> None:
    """A run holds few passes, so latency is taken over each task's median
    run.  The typical task is their geometric mean: the median task would
    read one dataset's two tasks and pooling the runs would move with the
    number of passes.  Latency and throughput are host-speed normalised;
    ``train_s`` is the wall time."""
    per_task = [median(task) for task in runs]
    ctx.report["train_s"] = (median(passes), "s")
    ctx.report["end_model_accuracy"] = (
        float(np.mean([o.accuracy for o in outcomes])), "ratio")
    ctx.report["latency_p50_ms"] = (
        float(np.exp(np.mean(np.log(per_task)))) * 1e3, "ms")
    ctx.report["latency_p99_ms"] = (max(per_task) * 1e3, "ms")
    ctx.report["throughput_per_s"] = (len(runs) / sum(per_task), "1/s")
    ctx.report["runs"] = (sum(len(task) for task in runs), "count")


def _run(ctx: Context, tracer: Tracer, setup, cold: bool):
    """Set up, time the passes, then (traced) replay one pass by stages.
    Returns the first task and its result, for the serving probes."""
    benches = timed_setups(ctx, setup)
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    runs, passes, outcomes, results = _timed_passes(ctx, benches, cold,
                                                    budget)
    if not cold:
        ctx.checks.expect("train_sweep.pretrain_cache_warm",
                          pretrain_cache_size() == 1,
                          f"{pretrain_cache_size()} cache entries")
    _report(ctx, runs, passes, outcomes)
    if ctx.trace:
        wall = trace_training(ctx, tracer, benches, outcomes, cold=cold)
        ctx.layers["trace.overhead_pct"] = \
            100.0 * (wall - median(passes)) / median(passes)
    return benches[0], results[0]


def train_cold(ctx: Context, tracer: Tracer):
    """fmd 5-shot, a fresh ZSL-KG pretrain before every run."""
    def setup():
        clear_pretrain_cache()
        return make_tasks(build_workspace(), [("fmd", 5)], ctx.seed)

    return _run(ctx, tracer, setup, cold=True)


def train_sweep(ctx: Context, tracer: Tracer):
    """All datasets x {1, 5} shots with the ZSL-KG pretrain cache warm."""
    grid = SHORT_GRID if ctx.short else [(d, s) for d in DATASETS
                                        for s in SHOTS]

    def setup():
        clear_pretrain_cache()
        benches = make_tasks(build_workspace(), grid, ctx.seed)
        fill_pretrain_cache(benches[0], ctx.seed)
        return benches

    return _run(ctx, tracer, setup, cold=False)


def fill_pretrain_cache(bench: BenchTask, seed: int) -> None:
    """Train the ZSL-KG module once so its class-encoder pretrain is cached."""
    from repro.core import Controller
    Controller(modules=["zsl_kg"], config=controller_config(seed)).run(
        bench.task)
