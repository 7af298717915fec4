"""Determinism of the parallel controller (``parallel_modules=True``).

Every module seeds its RNGs from its own :class:`ModuleInput` and trains a
private copy of the backbone, so training the modules in a thread pool must
produce *bit-identical* taglets, pseudo labels, and end-model weights to the
sequential path for a fixed seed.  This is the invariant that makes the
parallel fast path safe to enable in production.

The one state the module threads do share is the selection's memo of the
intermediate phase that Transfer and FixMatch both start with; it must
still train once, and leave every byte as the sequential run has it.
"""

import time

import numpy as np
import pytest

from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig
from repro.modules import (FixMatchConfig, FixMatchModule, MultiTaskConfig,
                           MultiTaskModule, TransferConfig, TransferModule,
                           ZslKgConfig, ZslKgModule)
from repro.modules import base


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


def run_controller(task, parallel: bool, max_workers=None):
    # Clear the ZSL-KG pretraining cache so both runs execute the exact same
    # code path (fresh pretraining) rather than one priming the other.
    ZslKgModule._pretrained_cache.clear()
    config = ControllerConfig(end_model=EndModelConfig(epochs=4),
                              parallel_modules=parallel,
                              max_workers=max_workers, seed=7)
    controller = Controller(modules=tiny_modules(), config=config)
    return controller.run(task)


@pytest.fixture(scope="module")
def results(task):
    return run_controller(task, parallel=False), run_controller(task, parallel=True)


class TestParallelDeterminism:
    def test_pseudo_labels_bit_identical(self, results):
        sequential, parallel = results
        assert np.array_equal(sequential.pseudo_labels, parallel.pseudo_labels)

    def test_taglet_weights_bit_identical(self, results):
        sequential, parallel = results
        assert [t.name for t in sequential.taglets] == \
            [t.name for t in parallel.taglets]
        for seq_taglet, par_taglet in zip(sequential.taglets, parallel.taglets):
            seq_state = seq_taglet.model.state_dict()
            par_state = par_taglet.model.state_dict()
            assert sorted(seq_state) == sorted(par_state)
            for key in seq_state:
                assert np.array_equal(seq_state[key], par_state[key]), \
                    f"{seq_taglet.name}:{key} differs between runs"

    def test_end_model_weights_bit_identical(self, results):
        sequential, parallel = results
        seq_state = sequential.end_model.model.state_dict()
        par_state = parallel.end_model.model.state_dict()
        for key in seq_state:
            assert np.array_equal(seq_state[key], par_state[key]), \
                f"end_model:{key} differs between runs"

    def test_auxiliary_selection_identical(self, results):
        sequential, parallel = results
        assert sequential.auxiliary.concepts == parallel.auxiliary.concepts
        assert np.array_equal(sequential.auxiliary.features,
                              parallel.auxiliary.features)


class TestSharedIntermediatePhase:
    def test_trains_once_and_matches_sequential(self, task, results,
                                                monkeypatch):
        # One worker per module, so Transfer and FixMatch reach the phase
        # together; the sleep holds the first caller inside the training
        # run until the second is waiting on the memo's lock.
        phase_runs = []
        real = base.train_classifier

        def slow_counting(*args, **kwargs):
            phase_runs.append(args)
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(base, "train_classifier", slow_counting)
        parallel = run_controller(task, parallel=True, max_workers=4)
        assert len(phase_runs) == 1
        assert len(parallel.auxiliary._fine_tuned) == 1
        sequential, _ = results
        assert np.array_equal(sequential.pseudo_labels, parallel.pseudo_labels)
        for seq_taglet, par_taglet in zip(sequential.taglets,
                                          parallel.taglets):
            seq_state = seq_taglet.model.state_dict()
            par_state = par_taglet.model.state_dict()
            for key in seq_state:
                assert np.array_equal(seq_state[key], par_state[key]), \
                    f"{seq_taglet.name}:{key} differs between runs"
