"""The served model: trained once per run, exported, and turned into inputs.

Both serving workloads serve the fmd 5-shot result of the bench workspace:
the distilled end model as ``default`` and the taglet ensemble as
``ensemble``.  Request rows are drawn from the task's unlabeled pool with
a small seeded jitter, so every "fresh" row is distinct.
"""

from __future__ import annotations

import gc
import os
import shutil
from dataclasses import dataclass

import numpy as np

from common import WORK, Context
from spans import Tracer
import train


@dataclass
class Artifacts:
    end_model: str
    ensemble: str
    #: the task's unlabeled and test inputs, which request rows are drawn near
    unlabeled: np.ndarray
    test: np.ndarray


def export(result, bench: train.BenchTask, name: str) -> Artifacts:
    from repro.serve import export_end_model, export_ensemble

    directory = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return Artifacts(
        end_model=export_end_model(result, str(directory / "end-model")),
        ensemble=export_ensemble(result, str(directory / "ensemble")),
        unlabeled=bench.split.unlabeled_features.copy(),
        test=bench.split.test_features.copy())


def remove(artifacts: Artifacts) -> None:
    shutil.rmtree(os.path.dirname(artifacts.end_model), ignore_errors=True)


def train_served_model(ctx: Context, tracer: Tracer, name: str) -> Artifacts:
    """Cold ``Controller.run`` on fmd 5-shot; traced runs also replay it
    stage by stage for the training layers."""
    train.clear_pretrain_cache()
    bench = train.make_tasks(train.build_workspace(), [("fmd", 5)],
                             ctx.seed)[0]
    result, outcome = train.run_controller(bench, ctx.seed)
    train.check_outcome(ctx, outcome)
    if ctx.trace:
        train.trace_training(ctx, tracer, [bench], [outcome], cold=True)
    artifacts = export(result, bench, name)
    # Serve from a process that no longer holds the training objects, as
    # the serving CLI would.
    del result, bench
    train.clear_pretrain_cache()
    gc.collect()
    return artifacts


def fresh_rows(rng: np.random.Generator, pool: np.ndarray,
               count: int) -> np.ndarray:
    """``count`` distinct rows near the task's own inputs."""
    base = pool[rng.integers(0, len(pool), size=count)]
    scale = 0.05 * pool.std(axis=0, keepdims=True)
    return (base + rng.normal(size=base.shape) * scale).astype(pool.dtype)
