"""Tests for backbone pretraining and the registry."""

import numpy as np
import pytest

from repro.backbones import (BackboneRegistry, BackboneSpec, PretrainSpec,
                             default_registry, pretrain_backbone,
                             resnet50_imagenet1k)
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.training import predict_logits, train_classifier, TrainConfig


class TestPretraining:
    def test_pretrained_features_beat_random_features(self, tiny_workspace):
        """Pretraining on related concepts should make a frozen-feature
        classifier better than random features — the premise of the whole
        transfer pipeline."""
        world = tiny_workspace.world
        concepts = [c for c in tiny_workspace.graph.concepts
                    if tiny_workspace.scads.scads.has_images(c)][:100]
        spec = BackboneSpec(name="p", input_dim=world.image_dim, hidden_dims=(32,),
                            feature_dim=24, pretraining="test")
        pretrained = pretrain_backbone(world, concepts, spec,
                                       PretrainSpec(images_per_concept=12, epochs=6))

        split = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)

        def head_only_accuracy(encoder):
            train_features = encoder(Tensor(split.labeled_features)).data
            test_features = encoder(Tensor(split.test_features)).data
            from repro.nn import MLP

            head = MLP(24, [], split.num_classes, rng=np.random.default_rng(0))
            train_classifier(head, train_features, split.labeled_labels,
                             TrainConfig(epochs=40, lr=0.05, seed=0))
            return F.accuracy(predict_logits(head, test_features),
                              split.test_labels)

        from repro.backbones.backbone import Encoder

        random_encoder = Encoder(spec, rng=np.random.default_rng(9))
        assert (head_only_accuracy(pretrained.instantiate())
                >= head_only_accuracy(random_encoder))

    def test_pretrain_rejects_empty_concepts(self, tiny_workspace):
        spec = BackboneSpec(name="p", input_dim=16, hidden_dims=(8,), feature_dim=8)
        with pytest.raises(ValueError):
            pretrain_backbone(tiny_workspace.world, [], spec)

    def test_named_builders_cover_different_concept_sets(self, tiny_workspace):
        small = resnet50_imagenet1k(tiny_workspace.world, tiny_workspace.graph,
                                    coverage=0.2, feature_dim=8,
                                    pretrain_spec=PretrainSpec(images_per_concept=3,
                                                               epochs=1))
        assert small.spec.pretraining == "imagenet1k"
        full_concepts = [c for c in tiny_workspace.graph.concepts
                         if not c.startswith(("entity",))]
        assert len(small.pretrained_concepts) < len(full_concepts)

    def test_coverage_validation(self, tiny_workspace):
        with pytest.raises(ValueError):
            resnet50_imagenet1k(tiny_workspace.world, tiny_workspace.graph,
                                coverage=0.0)


class TestRegistry:
    def test_caching(self, tiny_workspace):
        registry = BackboneRegistry(tiny_workspace.world, tiny_workspace.graph)
        registry.register("custom", lambda: resnet50_imagenet1k(
            tiny_workspace.world, tiny_workspace.graph, coverage=0.1, feature_dim=8,
            pretrain_spec=PretrainSpec(images_per_concept=3, epochs=1)))
        first = registry.get("custom")
        second = registry.get("custom")
        assert first is second

    def test_unknown_backbone(self, tiny_workspace):
        registry = default_registry(tiny_workspace.world, tiny_workspace.graph)
        assert set(registry.available()) >= {"resnet50", "bit"}
        with pytest.raises(KeyError):
            registry.get("vit")
