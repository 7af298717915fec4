"""Tests for backbone encoders and classification models."""

import numpy as np
import pytest

from repro.backbones import (BackboneSpec, ClassificationModel, Encoder,
                             PretrainedBackbone)
from repro.nn import Tensor


SPEC = BackboneSpec(name="test", input_dim=8, hidden_dims=(12,), feature_dim=6,
                    pretraining="none")


class TestEncoder:
    def test_forward_shape_and_nonnegativity(self):
        encoder = Encoder(SPEC, rng=np.random.default_rng(0))
        out = encoder(Tensor(np.random.default_rng(1).normal(size=(5, 8))))
        assert out.shape == (5, 6)
        assert (out.data >= 0).all()  # final ReLU

    def test_feature_dim(self):
        assert Encoder(SPEC).feature_dim == 6


class TestPretrainedBackbone:
    def test_instantiate_loads_weights(self):
        source = Encoder(SPEC, rng=np.random.default_rng(0))
        backbone = PretrainedBackbone(SPEC, source.state_dict(),
                                      pretrained_concepts=["a", "b"])
        clone = backbone.instantiate(rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(2).normal(size=(3, 8)))
        np.testing.assert_allclose(source(x).data, clone(x).data)
        assert backbone.pretrained_concepts == ["a", "b"]
        assert backbone.feature_dim == 6 and backbone.input_dim == 8

    def test_instances_are_independent(self):
        backbone = PretrainedBackbone(SPEC, Encoder(SPEC).state_dict())
        a = backbone.instantiate()
        b = backbone.instantiate()
        first_param = a.parameters()[0]
        first_param.data[...] = 0.0
        assert not np.allclose(b.parameters()[0].data, 0.0)

    def test_state_dict_returns_copy(self):
        backbone = PretrainedBackbone(SPEC, Encoder(SPEC).state_dict())
        state = backbone.state_dict()
        key = next(iter(state))
        state[key][...] = 0.0
        assert not np.allclose(backbone.state_dict()[key], 0.0)


class TestClassificationModel:
    def test_forward_and_features(self):
        model = ClassificationModel(Encoder(SPEC, rng=np.random.default_rng(0)),
                                    num_classes=4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 8)))
        assert model(x).shape == (3, 4)
        assert model.features(x).shape == (3, 6)

    def test_replace_head_changes_output_size(self):
        model = ClassificationModel(Encoder(SPEC), num_classes=4)
        encoder_weight_before = model.encoder.parameters()[0].data.copy()
        model.replace_head(9)
        assert model.num_classes == 9
        out = model(Tensor(np.zeros((2, 8))))
        assert out.shape == (2, 9)
        # Replacing the head must not touch the encoder weights.
        np.testing.assert_allclose(model.encoder.parameters()[0].data,
                                   encoder_weight_before)

    def test_set_head_weights(self):
        model = ClassificationModel(Encoder(SPEC), num_classes=3)
        weights = np.random.default_rng(0).normal(size=(6, 3))
        model.set_head_weights(weights, bias=np.zeros(3))
        np.testing.assert_allclose(model.head.weight.data, weights)
        with pytest.raises(ValueError):
            model.set_head_weights(np.zeros((5, 3)))

    def test_from_backbone(self):
        backbone = PretrainedBackbone(SPEC, Encoder(SPEC).state_dict())
        model = ClassificationModel.from_backbone(backbone, num_classes=2)
        assert model.num_classes == 2

    def test_invalid_num_classes(self):
        with pytest.raises(ValueError):
            ClassificationModel(Encoder(SPEC), num_classes=0)
