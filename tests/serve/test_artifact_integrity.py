"""Every artifact shape the exporters write serves as a leaf chain, and a
damaged artifact fails to load with :class:`ArtifactError` and nothing else."""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from repro.distill import EndModel
from repro.ensemble import TagletEnsemble
from repro.modules.base import ModelTaglet
from repro.modules.zsl_kg import ZslKgTaglet
from repro.nn import Tensor, default_dtype, ops
from repro.nn.modules import ReLU, op_of
from repro.serve import (ArtifactError, ServableEnsemble, ServableModel,
                         export_end_model, export_ensemble, load_servable)
from repro.serve.artifact import MANIFEST_NAME, WEIGHTS_NAME

from .conftest import CLASS_NAMES, NUM_CLASSES

#: The two backbone shapes the workspace pretrains
#: (``repro.backbones.pretrain``), at the test feature width.
SPECS = {
    "resnet50": BackboneSpec(name="resnet50", input_dim=24, hidden_dims=(48,),
                             feature_dim=32, pretraining="imagenet1k"),
    "bit": BackboneSpec(name="bit", input_dim=24, hidden_dims=(64,),
                        feature_dim=48, pretraining="imagenet21k"),
}
FEATURES = np.random.default_rng(7).normal(size=(16, 24))


def _model(spec: BackboneSpec, seed: int) -> ClassificationModel:
    return ClassificationModel(Encoder(spec, rng=np.random.default_rng(seed)),
                               NUM_CLASSES, rng=np.random.default_rng(seed + 1))


def _export(fmt: str, spec: BackboneSpec, dtype: str, path: str) -> np.ndarray:
    """Export one artifact; return the offline probabilities on FEATURES."""
    with default_dtype(dtype):
        if fmt == "end_model":
            offline = EndModel(_model(spec, 0))
            export_end_model(offline, path, class_names=CLASS_NAMES)
        else:
            offline = TagletEnsemble([
                ModelTaglet("member_0", _model(spec, 10)),
                ZslKgTaglet("zsl_kg", _model(spec, 20), logit_scale=3.0)])
            export_ensemble(offline, path, class_names=CLASS_NAMES)
        return offline.predict_proba(np.asarray(FEATURES, dtype=dtype),
                                     batch_size=None)


class TestLeafChain:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("backbone", sorted(SPECS))
    @pytest.mark.parametrize("fmt", ["end_model", "ensemble"])
    def test_every_exported_shape_loads_as_a_leaf_chain(self, tmp_path, fmt,
                                                        backbone, dtype):
        spec = SPECS[backbone]
        offline = _export(fmt, spec, dtype, str(tmp_path / "artifact"))
        servable = load_servable(str(tmp_path / "artifact"))
        members = (servable._members if isinstance(servable, ServableEnsemble)
                   else [servable])
        assert len(members) == (2 if fmt == "ensemble" else 1)
        relu = op_of(ReLU())
        # Trunk Linear/ReLU pairs, the encoder's output ReLU, then the head.
        expected = [ops.LINEAR, relu] * (len(spec.hidden_dims) + 1) \
            + [ops.LINEAR]
        for member in members:
            assert [op for op, _ in member._chain.leaves] == expected
        assert np.array_equal(servable.predict_proba(FEATURES), offline)

    def test_a_model_that_is_not_a_chain_is_refused(self):
        class Doubled(ClassificationModel):
            def forward(self, x: Tensor) -> Tensor:
                logits = self.head(self.encoder(x))
                return logits + logits

        model = Doubled(Encoder(SPECS["resnet50"],
                                rng=np.random.default_rng(0)), NUM_CLASSES)
        manifest = {"class_names": CLASS_NAMES, "dtype": "float64",
                    "weights_digest": "0" * 64}
        with pytest.raises(ArtifactError, match="chain"):
            ServableModel(model, manifest)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A float64 end model and a two-member ensemble with a ZSL-KG member,
    each with the probabilities it serves on FEATURES."""
    root = tmp_path_factory.mktemp("pristine")
    artifacts = {}
    for fmt in ("end_model", "ensemble"):
        path = str(root / fmt)
        _export(fmt, SPECS["resnet50"], "float64", path)
        artifacts[fmt] = (path, load_servable(path).predict_proba(FEATURES))
    return artifacts


def _weights_file(fmt: str, member: int) -> str:
    return WEIGHTS_NAME if fmt == "end_model" else f"member_{member}.npz"


def _damaged_copy(source: str, tmp: str, name: str, damage) -> str:
    path = os.path.join(tmp, "artifact")
    shutil.copytree(source, path)
    target = os.path.join(path, name)
    with open(target, "rb") as handle:
        data = bytearray(handle.read())
    kind, detail = damage
    if kind == "truncate":
        data = data[:detail]
    else:
        for position, mask in detail:
            data[position % len(data)] ^= mask
    with open(target, "wb") as handle:
        handle.write(bytes(data))
    return path


class TestDamagedArtifacts:
    @pytest.mark.parametrize("fmt", ["end_model", "ensemble"])
    @pytest.mark.parametrize("cut", ["0", "10", "100", "half", "len-5"])
    def test_truncated_weight_archive(self, pristine, fmt, cut):
        source, _ = pristine[fmt]
        name = _weights_file(fmt, 0)
        size = os.path.getsize(os.path.join(source, name))
        keep = {"half": size // 2, "len-5": size - 5}.get(cut)
        keep = int(cut) if keep is None else keep
        with tempfile.TemporaryDirectory() as tmp:
            path = _damaged_copy(source, tmp, name, ("truncate", keep))
            with pytest.raises(ArtifactError, match="weight archive"):
                load_servable(path)

    @settings(max_examples=150, deadline=None)
    @given(fmt=st.sampled_from(["end_model", "ensemble"]),
           target=st.sampled_from(["weights", "manifest"]),
           member=st.integers(0, 1),
           damage=st.one_of(
               st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
               st.tuples(st.just("flip"), st.lists(
                   st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
                   min_size=1, max_size=4))))
    def test_damage_raises_only_artifact_error(self, pristine, fmt, target,
                                               member, damage):
        source, served = pristine[fmt]
        name = (MANIFEST_NAME if target == "manifest"
                else _weights_file(fmt, member))
        size = os.path.getsize(os.path.join(source, name))
        if damage[0] == "truncate":
            damage = ("truncate", damage[1] % size)   # always loses bytes
        with tempfile.TemporaryDirectory() as tmp:
            path = _damaged_copy(source, tmp, name, damage)
            try:
                servable = load_servable(path)
            except ArtifactError:
                return
            # A cut archive never loads, and an archive that survives its
            # damage (a zip field nothing reads) serves the exact weights:
            # the digest covers every key, shape, dtype and byte.
            assert not (target == "weights" and damage[0] == "truncate")
            if target == "weights":
                assert np.array_equal(servable.predict_proba(FEATURES),
                                      served)
