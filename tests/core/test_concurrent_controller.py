"""Concurrent ``Controller.run`` calls with different dtypes.

The engine's scopes (default dtype, replay, replay-stats sinks) are
context-local, so two Controllers running at the same time on two threads
must not see each other's settings.  Each run must produce exactly the
bytes the same configuration produces when it runs alone: pseudo labels,
every taglet's weights and the end model's weights.  Its replay counter must
count its own training loops only, with zero eager fallbacks.
"""

import threading

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig
from repro.modules import (FixMatchConfig, FixMatchModule, MultiTaskConfig,
                           MultiTaskModule, TransferConfig, TransferModule,
                           ZslKgConfig, ZslKgModule)
from repro.nn import ReplayStats, get_default_dtype

DTYPES = ("float32", "float64")


def tiny_modules():
    """All four paper modules with minimal budgets: determinism, not accuracy."""
    return [
        MultiTaskModule(MultiTaskConfig(epochs=2)),
        TransferModule(TransferConfig(aux_epochs=2, target_epochs=4)),
        FixMatchModule(FixMatchConfig(aux_epochs=2, head_warmup_epochs=3,
                                      epochs=2)),
        ZslKgModule(ZslKgConfig(pretrain_epochs=40, max_training_concepts=150,
                                images_per_prototype=4)),
    ]


@pytest.fixture(scope="module")
def task(tiny_workspace, tiny_backbone, fmd_split):
    return Task.from_split(fmd_split, scads=tiny_workspace.scads,
                           backbone=tiny_backbone,
                           wanted_num_related_class=2,
                           images_per_related_class=6)


def run_controller(task, dtype):
    """Every array the run produced, by name, and its replay counts."""
    stats = ReplayStats()
    config = ControllerConfig(end_model=EndModelConfig(epochs=4), dtype=dtype,
                              replay_stats=stats, seed=7)
    result = Controller(modules=tiny_modules(), config=config).run(task)
    arrays = {"pseudo_labels": result.pseudo_labels}
    for taglet in result.taglets:
        for key, value in taglet.model.state_dict().items():
            arrays[f"{taglet.name}:{key}"] = value
    for key, value in result.end_model.model.state_dict().items():
        arrays[f"end_model:{key}"] = value
    return arrays, (stats.captures, stats.replays, stats.eager_steps)


@pytest.fixture(scope="module")
def alone(task):
    results = {}
    for dtype in DTYPES:
        # Each run pretrains ZSL-KG itself rather than reading the other's.
        ZslKgModule._pretrained_cache.clear()
        results[dtype] = run_controller(task, dtype)
    return results


@pytest.fixture(scope="module")
def concurrent(task, alone):
    ZslKgModule._pretrained_cache.clear()
    results, errors = {}, []
    start = threading.Barrier(len(DTYPES), timeout=60)

    def worker(dtype):
        try:
            start.wait()
            results[dtype] = run_controller(task, dtype)
        except Exception as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(dtype,))
               for dtype in DTYPES]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


class TestConcurrentControllers:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_outputs_byte_equal_to_running_alone(self, alone, concurrent,
                                                 dtype):
        expected, got = alone[dtype][0], concurrent[dtype][0]
        assert sorted(got) == sorted(expected)
        for name, value in expected.items():
            assert got[name].dtype == value.dtype, name
            assert got[name].tobytes() == value.tobytes(), \
                f"{name} differs from the {dtype} run alone"

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_replay_counts_equal_to_running_alone(self, alone, concurrent,
                                                  dtype):
        counts = concurrent[dtype][1]
        assert counts == alone[dtype][1]
        assert counts[0] > 0 and counts[2] == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_each_run_used_its_own_dtype(self, concurrent, dtype):
        for name, value in concurrent[dtype][0].items():
            if name.startswith("end_model:"):
                assert value.dtype == np.dtype(dtype), name

    def test_scopes_did_not_leak_into_the_caller(self, concurrent):
        assert get_default_dtype() is np.float64
