"""Zero-fallback regression tests for the pipeline's training loops.

Before the DAG tracer, unsupported graph shapes (FixMatch's two-view step)
fell back to eager *silently* — the loop trained
correctly but forfeited the replay speedup, and nothing failed.  These tests
turn that into a caught regression: every static training loop in the
pipeline runs with a :class:`~repro.nn.ReplayStats` counter attached and
must report **zero eager fallbacks** — one capture per signature, replays
for everything else.  Replay is switched only by the engine scope
(``use_graph_replay``), so a whole pipeline run with it off must train
every byte the same as with it on.
"""

import numpy as np
import pytest

from repro.evaluation import METHOD_REGISTRY
from repro.modules.zsl_kg import _l2_step
from repro.nn import (MLP, Adam, GraphReplay, ReplayStats, TrainConfig,
                      collect_replay_stats, default_dtype, train_classifier,
                      train_soft_classifier, use_graph_replay)
from repro.nn.modules import Linear, Module, ReLU


def _assert_no_fallbacks(stats: ReplayStats):
    assert stats.fallbacks == {}, stats.fallbacks
    assert stats.fallback_count == 0
    assert stats.eager_steps == 0
    assert stats.captures > 0
    assert stats.replays > 0


class TestTrainingLoops:
    def test_train_classifier_zero_fallbacks(self):
        stats = ReplayStats()
        rng = np.random.default_rng(0)
        features = rng.normal(size=(150, 16))
        labels = rng.integers(0, 5, size=150)
        config = TrainConfig(epochs=4, batch_size=32, lr=0.05, momentum=0.9,
                             seed=0)
        model = MLP(16, [32, 24], 5, rng=np.random.default_rng(1))
        with use_graph_replay(True), collect_replay_stats(stats):
            train_classifier(model, features, labels, config)
        _assert_no_fallbacks(stats)

    def test_train_soft_classifier_zero_fallbacks(self):
        stats = ReplayStats()
        rng = np.random.default_rng(2)
        features = rng.normal(size=(120, 12))
        probs = rng.dirichlet(np.ones(4), size=120)
        config = TrainConfig(epochs=4, batch_size=32, lr=3e-3,
                             optimizer="adam", seed=0)
        model = MLP(12, [24], 4, rng=np.random.default_rng(3))
        with use_graph_replay(True), collect_replay_stats(stats):
            train_soft_classifier(model, features, probs, config)
        _assert_no_fallbacks(stats)

    def test_zsl_kg_pretrain_loop_zero_fallbacks(self):
        # The ZSL-KG pretrain shape: full-batch L2 + Adam, stepped exactly
        # as zsl_kg._pretrain does (its validation pass runs the leaf chain,
        # outside the executor).
        class _ClassEncoder(Module):
            def __init__(self, rng):
                super().__init__()
                self.fc1 = Linear(24, 32, rng=rng)
                self.activation = ReLU()
                self.fc2 = Linear(32, 16, rng=rng)

            def forward(self, x):
                return self.fc2(self.activation(self.fc1(x)))

        stats = ReplayStats()
        rng = np.random.default_rng(4)
        train_x = rng.normal(size=(30, 24))
        train_y = rng.normal(size=(30, 16))
        encoder = _ClassEncoder(np.random.default_rng(5))
        optimizer = Adam(encoder.parameters(), lr=1e-2)
        with use_graph_replay(True), collect_replay_stats(stats):
            stepper = GraphReplay(encoder, optimizer)
            for _ in range(20):
                stepper.step_fn(_l2_step, {"x": train_x, "y": train_y},
                                compute_loss=False)
        _assert_no_fallbacks(stats)
        assert stats.captures == 1  # one training plan


def _fmd_task(workspace, backbone):
    from repro.core import Task

    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    return Task.from_split(split, scads=workspace.scads, backbone=backbone,
                           wanted_num_related_class=3,
                           images_per_related_class=8)


def _counts(stats: ReplayStats):
    return (stats.captures, stats.replays, stats.eager_steps,
            dict(stats.fallbacks))


class TestSharedCounter:
    def test_counter_registered_twice_ticks_once_per_step(self, tiny_workspace,
                                                          tiny_backbone):
        # The same ReplayStats arriving both through
        # ControllerConfig.replay_stats and an enclosing collect_replay_stats
        # must count each step exactly once: it ends equal to a second
        # counter registered once on the same run.
        from repro.core import Controller, ControllerConfig

        task = _fmd_task(tiny_workspace, tiny_backbone)
        shared, single = ReplayStats(), ReplayStats()
        with collect_replay_stats(single), collect_replay_stats(shared):
            Controller(config=ControllerConfig(replay_stats=shared,
                                               seed=0)).run(task)
        assert _counts(shared) == _counts(single)
        _assert_no_fallbacks(single)


class TestFixMatchTwoView:
    def test_fixmatch_module_zero_fallbacks(self):
        # The full module — auxiliary fine-tuning, head warm-up, and the
        # two-view consistency loop (pseudo-label forward + compiled
        # two-view step) — must never silently fall back to eager.
        from repro.backbones.backbone import (BackboneSpec, Encoder,
                                              PretrainedBackbone)
        from repro.datasets.base import ClassSpec
        from repro.modules.base import ModuleInput
        from repro.modules.fixmatch import FixMatchConfig, FixMatchModule
        from repro.scads.query import AuxiliarySelection

        rng = np.random.default_rng(6)
        spec = BackboneSpec("t", input_dim=12, hidden_dims=(16,),
                            feature_dim=8)
        backbone = PretrainedBackbone(
            spec, Encoder(spec, rng=rng).state_dict())
        classes = [ClassSpec(name=f"c{i}", concept=f"c{i}") for i in range(4)]
        aux = AuxiliarySelection(features=rng.normal(size=(40, 12)),
                                 labels=rng.integers(0, 3, size=40),
                                 concepts=["a", "b", "c"])
        data = ModuleInput(classes=classes,
                           labeled_features=rng.normal(size=(20, 12)),
                           labeled_labels=rng.integers(0, 4, size=20),
                           unlabeled_features=rng.normal(size=(64, 12)),
                           auxiliary=aux, backbone=backbone, seed=0)
        stats = ReplayStats()
        config = FixMatchConfig(aux_epochs=2, head_warmup_epochs=2, epochs=3,
                                confidence_threshold=0.5)
        with use_graph_replay(True), collect_replay_stats(stats):
            FixMatchModule(config).train(data)
        _assert_no_fallbacks(stats)


class TestMultiTaskJointStep:
    def test_multitask_module_zero_fallbacks(self, tiny_workspace,
                                             tiny_backbone):
        # The joint target + auxiliary step (shared encoder, two losses,
        # weighted sum) is compiled like every other pipeline loop.
        from repro.modules.base import ModuleInput
        from repro.modules.multitask import MultiTaskConfig, MultiTaskModule

        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        auxiliary = tiny_workspace.scads.select(
            split.classes, num_related_concepts=3, images_per_concept=8,
            rng=np.random.default_rng(0))
        data = ModuleInput(classes=split.classes,
                           labeled_features=split.labeled_features,
                           labeled_labels=split.labeled_labels,
                           unlabeled_features=split.unlabeled_features,
                           auxiliary=auxiliary, backbone=tiny_backbone,
                           seed=0)
        stats = ReplayStats()
        with collect_replay_stats(stats):
            MultiTaskModule(MultiTaskConfig(epochs=3)).train(data)
        _assert_no_fallbacks(stats)


class TestScenarioLoops:
    # The scenario grid stresses the pipeline with regime shapes the plain
    # FMD split never produces — ragged per-class label counts, corrupted
    # pools, per-stage retraining over growing class sets.  Every one of
    # those training loops must still replay with zero eager fallbacks.
    @pytest.mark.parametrize("name", ["fmd_5shot_imbalanced",
                                      "cifar_5shot_mixing_s2"])
    def test_single_stage_scenario_zero_fallbacks(self, name, tiny_workspace):
        from repro.evaluation import ExperimentRunner
        from repro.scenarios import SCENARIO_GRID

        stats = ReplayStats()
        runner = ExperimentRunner(tiny_workspace)
        with collect_replay_stats(stats):
            row = runner.run_cell(SCENARIO_GRID[name], method="taglets",
                                  seed=0)
        _assert_no_fallbacks(stats)
        assert row.fallbacks == 0

    def test_multi_stage_scenario_zero_fallbacks(self, tiny_workspace):
        # Incremental stages retrain from scratch on different class counts
        # — new graph signatures per stage, but still never an eager step.
        from repro.evaluation import ExperimentRunner
        from repro.scenarios import SCENARIO_GRID

        stats = ReplayStats()
        runner = ExperimentRunner(tiny_workspace)
        with collect_replay_stats(stats):
            row = runner.run_cell(SCENARIO_GRID["cifar_incremental_2phase"],
                                  method="taglets", seed=0)
        _assert_no_fallbacks(stats)
        assert row.fallbacks == 0


class TestRegisteredMethods:
    # Every method of the paper's tables, TAGLETS and each baseline, trains
    # through the replay executor: Meta Pseudo Labels' teacher-student
    # loop included, no training step of any method runs eagerly.
    @pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
    def test_method_zero_fallbacks(self, method, tiny_workspace):
        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        stats = ReplayStats()
        with collect_replay_stats(stats):
            METHOD_REGISTRY[method].run(tiny_workspace, split, "resnet50", 0)
        _assert_no_fallbacks(stats)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_meta_pseudo_labels_replay_off_matches_replay_on(
            self, dtype, tiny_workspace, tiny_backbone):
        # The student and teacher updates replay bit-identically to
        # running the same step functions on the eager tape.
        from repro.baselines import (MetaPseudoLabelsBaseline,
                                     MetaPseudoLabelsConfig)
        from repro.modules.base import ModuleInput
        from repro.scads.query import AuxiliarySelection

        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        data = ModuleInput(
            classes=split.classes, labeled_features=split.labeled_features,
            labeled_labels=split.labeled_labels,
            unlabeled_features=split.unlabeled_features,
            auxiliary=AuxiliarySelection.empty(
                split.labeled_features.shape[1]),
            backbone=tiny_backbone, seed=0)
        runs = {}
        for replay in (True, False):
            stats = ReplayStats()
            with default_dtype(dtype), use_graph_replay(replay), \
                    collect_replay_stats(stats):
                taglet = MetaPseudoLabelsBaseline().train(data)
            runs[replay] = (taglet.model.state_dict(), stats)
        (on, on_stats), (off, off_stats) = runs[True], runs[False]
        _assert_no_fallbacks(on_stats)
        # Both updates of every teacher-student step reach the executor,
        # besides the final fine-tune's steps.
        assert on_stats.total > 2 * MetaPseudoLabelsConfig().steps
        assert off_stats.captures == off_stats.replays == 0
        assert list(on) == list(off)
        for key, value in on.items():
            assert value.dtype == off[key].dtype == np.dtype(dtype)
            assert value.tobytes() == off[key].tobytes(), key


class TestControllerRun:
    def test_full_pipeline_zero_fallbacks(self, tiny_workspace, tiny_backbone):
        # Every training loop in a full TAGLETS run — all four paper-default
        # modules plus the end-model distillation — reports into one shared
        # counter via ControllerConfig.replay_stats, and none may fall back.
        from repro.core import Controller, ControllerConfig

        task = _fmd_task(tiny_workspace, tiny_backbone)
        stats = ReplayStats()
        config = ControllerConfig(replay=True, replay_stats=stats, seed=0)
        Controller(config=config).run(task)
        _assert_no_fallbacks(stats)

    def test_every_call_resolves_inside_an_epoch_scope(
            self, tiny_workspace, tiny_backbone, monkeypatch):
        # The executor keeps no cache outside an epoch() scope, so a loop
        # that called it unscoped would fingerprint the model on every call.
        # A cold float32 run (the ZSL-KG pretrain included) must make every
        # call inside a scope, and fingerprint each stepper's model at most
        # once per scope.
        from repro.core import Controller, ControllerConfig
        from repro.modules.zsl_kg import ZslKgModule
        from repro.nn import replay as replay_module

        monkeypatch.setattr(ZslKgModule, "_pretrained_cache", {})
        scoped, current, keep = [], [], []
        fingerprints = {}
        real_step_fn = GraphReplay.step_fn
        real_sig = GraphReplay._fingerprint_sig
        real_fingerprint = replay_module._model_fingerprint

        def step_fn(self, *args, **kwargs):
            scoped.append(self._epoch_outcomes is not None)
            return real_step_fn(self, *args, **kwargs)

        def fingerprint_sig(self):
            current.append(self)
            try:
                return real_sig(self)
            finally:
                current.pop()

        def fingerprint(module):
            stepper = current[-1]
            scope = stepper._epoch_outcomes
            keep.append((stepper, scope))  # no id reuse while counting
            key = (id(stepper), id(scope))
            fingerprints[key] = fingerprints.get(key, 0) + 1
            return real_fingerprint(module)

        monkeypatch.setattr(GraphReplay, "step_fn", step_fn)
        monkeypatch.setattr(GraphReplay, "_fingerprint_sig", fingerprint_sig)
        monkeypatch.setattr(replay_module, "_model_fingerprint", fingerprint)
        stats = ReplayStats()
        config = ControllerConfig(dtype="float32", replay=True,
                                  replay_stats=stats, seed=0)
        Controller(config=config).run(_fmd_task(tiny_workspace,
                                                tiny_backbone))
        _assert_no_fallbacks(stats)
        assert len(scoped) == stats.total
        assert all(scoped), f"{scoped.count(False)} calls outside epoch()"
        assert fingerprints and max(fingerprints.values()) == 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_replay_off_matches_replay_on(self, dtype, tiny_workspace,
                                          tiny_backbone):
        # The one replay switch reaches every loop: with it off, no stepper
        # in the run captures or replays, and every output byte is the same
        # as the replayed run's.
        from repro.core import Controller, ControllerConfig

        task = _fmd_task(tiny_workspace, tiny_backbone)
        runs = {}
        for replay in (True, False):
            stats = ReplayStats()
            config = ControllerConfig(dtype=dtype, replay=replay,
                                      replay_stats=stats, seed=0)
            runs[replay] = (Controller(config=config).run(task), stats)
        (on, on_stats), (off, off_stats) = runs[True], runs[False]
        _assert_no_fallbacks(on_stats)
        assert off_stats.captures == off_stats.replays == 0
        assert off_stats.eager_steps > 0
        assert off_stats.fallbacks == {"replay_disabled":
                                       off_stats.eager_steps}
        assert on.pseudo_labels.dtype == off.pseudo_labels.dtype
        assert on.pseudo_labels.tobytes() == off.pseudo_labels.tobytes()
        assert [t.name for t in on.taglets] == [t.name for t in off.taglets]
        for got, expected in zip(on.taglets + [on.end_model],
                                 off.taglets + [off.end_model]):
            got_state = got.model.state_dict()
            expected_state = expected.model.state_dict()
            assert list(got_state) == list(expected_state), got.name
            for key, value in got_state.items():
                assert value.dtype == expected_state[key].dtype
                assert value.tobytes() == expected_state[key].tobytes(), \
                    (got.name, key)
