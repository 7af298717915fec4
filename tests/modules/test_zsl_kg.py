"""Tests for the ZSL-KG module."""

import weakref

import numpy as np
import pytest

from repro.modules import GraphClassEncoder, ZslKgConfig, ZslKgModule, zsl_kg
from repro.modules.zsl_kg import (_PROTOTYPE_CHUNK, _prototype_targets,
                                  _validation_loss)
from repro.nn import (Tensor, default_dtype, leaf_chain, no_grad,
                      use_graph_replay)
from repro.nn import functional as F
from repro.nn import replay as replay_module


FAST_CONFIG = ZslKgConfig()


class TestGraphClassEncoder:
    def test_output_shape(self):
        encoder = GraphClassEncoder(embedding_dim=16, hidden_dim=8, output_dim=6,
                                    rng=np.random.default_rng(0))
        out = encoder(Tensor(np.random.default_rng(1).normal(size=(4, 32))))
        assert out.shape == (4, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_validation_loss_is_the_eager_l2_loss(self, dtype):
        # The pretrain's validation pass: the leaf chain, then the sqerr
        # table op, byte for byte the eager no_grad loss.
        rng = np.random.default_rng(2)
        with default_dtype(dtype):
            encoder = GraphClassEncoder(embedding_dim=16, hidden_dim=8,
                                        output_dim=6, rng=rng)
        x = rng.normal(size=(7, 32)).astype(dtype)
        y = rng.normal(size=(7, 6)).astype(dtype)
        with default_dtype(dtype), no_grad():
            eager = F.l2_loss(encoder(Tensor(x)), y).item()
        chain = leaf_chain(encoder, 32, dtype)
        assert _validation_loss(chain, x, y) == eager


class TestZslKgModule:
    def test_zero_shot_above_chance(self, module_input, fmd_test_data):
        ZslKgModule._pretrained_cache.clear()
        taglet = ZslKgModule(FAST_CONFIG).train(module_input)
        accuracy = taglet.accuracy(*fmd_test_data)
        assert accuracy > 1.5 / module_input.num_classes

    def test_does_not_use_labeled_data(self, module_input, fmd_test_data):
        """Shuffling the labels must not change the taglet: it is zero-shot."""
        import copy

        ZslKgModule._pretrained_cache.clear()
        module = ZslKgModule(FAST_CONFIG)
        taglet_a = module.train(module_input)

        shuffled = copy.copy(module_input)
        shuffled.labeled_labels = np.roll(module_input.labeled_labels, 1)
        taglet_b = module.train(shuffled)
        np.testing.assert_allclose(taglet_a.predict_proba(fmd_test_data[0][:5]),
                                   taglet_b.predict_proba(fmd_test_data[0][:5]))

    def test_probabilities_valid(self, module_input, fmd_test_data):
        taglet = ZslKgModule(FAST_CONFIG).train(module_input)
        probs = taglet.predict_proba(fmd_test_data[0][:7])
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7))

    def test_pretraining_is_cached(self, module_input):
        ZslKgModule._pretrained_cache.clear()
        module = ZslKgModule(FAST_CONFIG)
        module.train(module_input)
        assert len(ZslKgModule._pretrained_cache) == 1
        module.train(module_input)
        assert len(ZslKgModule._pretrained_cache) == 1

    def test_pretrain_cache_is_keyed_on_the_config(self, module_input):
        """Regression: a short pretrain config used to be answered from an
        entry another config had filled (the key ignored the config)."""
        ZslKgModule._pretrained_cache.clear()
        short = ZslKgModule(ZslKgConfig(pretrain_epochs=5,
                                        max_training_concepts=60))
        longer = ZslKgModule(ZslKgConfig(pretrain_epochs=10,
                                         max_training_concepts=60))
        scads, backbone = module_input.scads, module_input.backbone
        first = short._pretrain(scads, backbone, seed=0)
        second = longer._pretrain(scads, backbone, seed=0)
        assert len(ZslKgModule._pretrained_cache) == 2
        assert second is not first
        assert short._pretrain(scads, backbone, seed=0) is first
        # Entries pin the objects whose ids they are keyed on.
        for entry in ZslKgModule._pretrained_cache.values():
            assert entry[0] is backbone and entry[1] is scads.scads.graph
        ZslKgModule._pretrained_cache.clear()

    def test_pretrain_cache_is_keyed_on_the_pruning(self, module_input):
        """Regression: a pruned bundle shares the graph but pretrains on
        fewer concepts; after an unpruned pretrain it was answered from
        the unpruned entry."""
        module = ZslKgModule(ZslKgConfig(pretrain_epochs=5,
                                         max_training_concepts=60))
        scads, backbone = module_input.scads, module_input.backbone
        pruned = scads.pruned(module_input.classes, 0)
        assert pruned.scads.graph is scads.scads.graph
        ZslKgModule._pretrained_cache.clear()
        fresh = module._pretrain(pruned, backbone, seed=0)
        ZslKgModule._pretrained_cache.clear()
        unpruned = module._pretrain(scads, backbone, seed=0)
        after_unpruned = module._pretrain(pruned, backbone, seed=0)
        ZslKgModule._pretrained_cache.clear()
        assert any(unpruned[name].tobytes() != fresh[name].tobytes()
                   for name in fresh)
        assert list(after_unpruned) == list(fresh)
        for name in fresh:
            assert after_unpruned[name].tobytes() == fresh[name].tobytes(), name

    def test_pretrain_cache_is_keyed_on_the_seed(self, module_input):
        """Regression: a seed-2 pretrain after a seed-1 one was answered
        from the seed-1 entry, so a taglet depended on run order."""
        module = ZslKgModule(ZslKgConfig(pretrain_epochs=5,
                                         max_training_concepts=60))
        scads, backbone = module_input.scads, module_input.backbone
        ZslKgModule._pretrained_cache.clear()
        fresh = module._pretrain(scads, backbone, seed=2)
        ZslKgModule._pretrained_cache.clear()
        module._pretrain(scads, backbone, seed=1)
        after_seed_1 = module._pretrain(scads, backbone, seed=2)
        ZslKgModule._pretrained_cache.clear()
        assert list(after_seed_1) == list(fresh)
        for name in fresh:
            assert after_seed_1[name].tobytes() == fresh[name].tobytes(), name

    def test_requires_scads(self, module_input):
        import copy

        broken = copy.copy(module_input)
        broken.scads = None
        with pytest.raises(ValueError):
            ZslKgModule(FAST_CONFIG).train(broken)

    def test_handles_oov_target_classes(self, tiny_workspace, tiny_backbone):
        """Grocery Store includes oatghurt/soygurt, which are added nodes."""
        from repro.modules.base import ModuleInput
        from repro.scads.query import AuxiliarySelection

        split = tiny_workspace.make_task_split("grocery_store", shots=1, split_seed=0)
        empty = AuxiliarySelection(
            features=np.zeros((0, tiny_workspace.world.image_dim)),
            labels=np.zeros(0, dtype=np.int64), concepts=[])
        data = ModuleInput(classes=split.classes,
                           labeled_features=split.labeled_features,
                           labeled_labels=split.labeled_labels,
                           unlabeled_features=split.unlabeled_features[:20],
                           auxiliary=empty, backbone=tiny_backbone,
                           scads=tiny_workspace.scads, seed=0)
        taglet = ZslKgModule(FAST_CONFIG).train(data)
        probs = taglet.predict_proba(split.test_features[:5])
        assert probs.shape == (5, split.num_classes)
        assert np.isfinite(probs).all()


class TestPretrainFastPath:
    """The pretrain's fast path (replay with in-place ReLU buffers, chunked
    prototype forwards, buffer-copied checkpoints) changes no weight bit."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_replay_weights_byte_identical_to_eager(self, module_input, dtype):
        config = ZslKgConfig(pretrain_epochs=60, max_training_concepts=300)

        def pretrain(replay):
            ZslKgModule._pretrained_cache.clear()
            with default_dtype(dtype), use_graph_replay(replay):
                return ZslKgModule(config)._pretrain(
                    module_input.scads, module_input.backbone, seed=0)

        replayed, eager = pretrain(True), pretrain(False)
        ZslKgModule._pretrained_cache.clear()
        assert list(replayed) == list(eager)
        for name in eager:
            assert replayed[name].dtype == np.dtype(dtype)
            assert replayed[name].tobytes() == eager[name].tobytes(), name

    def test_pretrain_fingerprints_the_encoder_once(
            self, module_input, monkeypatch):
        # The whole pretrain is one epoch scope: one structural fingerprint
        # for the training steps, however many epochs run.  The validation
        # pass runs the leaf chain, which the executor never sees.
        calls = []
        fingerprint = replay_module._model_fingerprint

        def counting(module):
            calls.append(module)
            return fingerprint(module)

        monkeypatch.setattr(replay_module, "_model_fingerprint", counting)
        config = ZslKgConfig(pretrain_epochs=20, max_training_concepts=100)
        ZslKgModule._pretrained_cache.clear()
        try:
            ZslKgModule(config)._pretrain(module_input.scads,
                                          module_input.backbone, seed=0)
        finally:
            ZslKgModule._pretrained_cache.clear()
        assert len(calls) == 1

    def test_the_loop_holds_no_float64_originals(self, module_input,
                                                 monkeypatch):
        # The loop reads only the engine-dtype casts of the stacked node
        # descriptions and prototype targets; the float64 stacks are freed
        # before its first epoch.
        class RecordingNumpy:
            """``numpy`` as the module sees it, with a weak reference to
            every ``stack`` result."""

            def __init__(self):
                self.stacked = []

            def __getattr__(self, name):
                return getattr(np, name)

            def stack(self, arrays, *args, **kwargs):
                out = np.stack(arrays, *args, **kwargs)
                self.stacked.append(weakref.ref(out))
                return out

        recording = RecordingNumpy()
        alive = []
        validation_loss = zsl_kg._validation_loss

        def checking(chain, x, y):
            if not alive:
                alive.append([ref().shape for ref in recording.stacked
                              if ref() is not None])
            return validation_loss(chain, x, y)

        monkeypatch.setattr(zsl_kg, "np", recording)
        monkeypatch.setattr(zsl_kg, "_validation_loss", checking)
        config = ZslKgConfig(pretrain_epochs=2, max_training_concepts=60)
        ZslKgModule._pretrained_cache.clear()
        try:
            ZslKgModule(config)._pretrain(module_input.scads,
                                          module_input.backbone, seed=0)
        finally:
            ZslKgModule._pretrained_cache.clear()
        # The descriptions and the targets, both float64 and both freed.
        assert len(recording.stacked) == 2
        assert alive == [[]]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_chunked_targets_match_per_concept_loop(self, tiny_workspace,
                                                     tiny_backbone, dtype):
        scads = tiny_workspace.scads.scads
        # Two full chunks and a ragged third.
        concepts = scads.concepts_with_images()[:2 * _PROTOTYPE_CHUNK + 7]
        assert len(concepts) == 2 * _PROTOTYPE_CHUNK + 7
        with default_dtype(dtype):
            encoder = tiny_backbone.instantiate(rng=np.random.default_rng(0))
            chunked = _prototype_targets(scads, encoder, concepts, 10,
                                         np.random.default_rng(1))
            # The reference: one draw and one backbone forward per concept.
            rng = np.random.default_rng(1)
            reference = []
            for concept in concepts:
                images = scads.get_images(concept, limit=10, rng=rng)
                with no_grad():
                    features = encoder(Tensor(images)).data
                prototype = features.mean(axis=0)
                norm = np.linalg.norm(prototype)
                reference.append(prototype / norm if norm > 0 else prototype)
        reference = np.stack(reference)
        assert chunked.dtype == reference.dtype == np.dtype(dtype)
        assert chunked.tobytes() == reference.tobytes()
