"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.nn import (MLP, StateDictMismatchError, Tensor, default_dtype,
                      load_state_dict, save_state_dict, state_dict_digest,
                      state_dict_manifest, validate_state_dict)


def save(module, path):
    save_state_dict(module.state_dict(), path)


def load_strict(module, path):
    """The strict load a serving artifact runs: validate, then load."""
    state = load_state_dict(path)
    validate_state_dict(module, state, source=path)
    module.load_state_dict(state)


class TestSerialization:
    def test_state_dict_roundtrip(self, tmp_path):
        path = str(tmp_path / "checkpoints" / "model.npz")
        state = {"layer.weight": np.random.default_rng(0).normal(size=(3, 4)),
                 "layer.bias": np.zeros(4)}
        save_state_dict(state, path)
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        np.testing.assert_allclose(loaded["layer.weight"], state["layer.weight"])

    def test_module_roundtrip_preserves_predictions(self, tmp_path):
        path = str(tmp_path / "mlp.npz")
        source = MLP(5, [7], 3, rng=np.random.default_rng(0))
        save(source, path)
        target = MLP(5, [7], 3, rng=np.random.default_rng(1))
        load_strict(target, path)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 5)))
        np.testing.assert_allclose(source(x).data, target(x).data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(str(tmp_path / "missing.npz"))

    def test_shape_mismatch_on_load(self, tmp_path):
        path = str(tmp_path / "mlp.npz")
        save(MLP(5, [7], 3), path)
        wrong = MLP(5, [9], 3)
        with pytest.raises((ValueError, KeyError)):
            load_strict(wrong, path)


class TestStrictValidation:
    """Mismatched archives must fail loudly at load time, naming the
    offending parameters — not at the first forward with a shape error."""

    def test_shape_mismatch_names_the_parameter_and_path(self, tmp_path):
        path = str(tmp_path / "mlp.npz")
        save(MLP(5, [7], 3), path)
        wrong = MLP(5, [9], 3)
        with pytest.raises(StateDictMismatchError) as excinfo:
            load_strict(wrong, path)
        message = str(excinfo.value)
        assert "net.layers.0.weight" in message
        assert "(5, 9)" in message and "(5, 7)" in message
        assert path in message

    def test_missing_and_unexpected_keys_all_reported(self, tmp_path):
        path = str(tmp_path / "shallow.npz")
        save(MLP(5, [7], 3), path)        # layers 0 and 2
        deeper = MLP(5, [7, 7], 3)               # layers 0, 2, 4
        with pytest.raises(StateDictMismatchError) as excinfo:
            load_strict(deeper, path)
        message = str(excinfo.value)
        assert "missing key" in message and "net.layers.4.weight" in message

    def test_extra_archive_keys_reported(self, tmp_path):
        path = str(tmp_path / "extra.npz")
        module = MLP(5, [7], 3)
        state = module.state_dict()
        state["rogue.weight"] = np.zeros((2, 2))
        save_state_dict(state, path)
        with pytest.raises(StateDictMismatchError, match="rogue.weight"):
            load_strict(MLP(5, [7], 3), path)

    def test_incompatible_dtype_rejected(self):
        module = MLP(5, [7], 3)
        state = module.state_dict()
        first = next(iter(state))
        state[first] = state[first].astype(np.int64)
        with pytest.raises(StateDictMismatchError, match="dtype mismatch"):
            validate_state_dict(module, state)

    def test_float_cross_precision_cast_allowed(self, tmp_path):
        """float64 checkpoints still load into float32 fast-mode models."""
        path = str(tmp_path / "f64.npz")
        source = MLP(5, [7], 3, rng=np.random.default_rng(0))
        save(source, path)
        with default_dtype("float32"):
            target = MLP(5, [7], 3)
        load_strict(target, path)   # the cast is sanctioned
        assert target.net.layers[0].weight.data.dtype == np.float32

    def test_unvalidated_load_still_refuses_a_mismatch(self, tmp_path):
        path = str(tmp_path / "mlp.npz")
        save(MLP(5, [7], 3), path)
        wrong = MLP(5, [9], 3)
        # Without validation, Module.load_state_dict reports the first error.
        with pytest.raises((ValueError, KeyError)):
            wrong.load_state_dict(load_state_dict(path))

    def test_validate_accepts_matching_state(self, tmp_path):
        module = MLP(5, [7], 3)
        validate_state_dict(module, module.state_dict())


class TestManifestHelpers:
    def test_manifest_describes_every_entry(self):
        module = MLP(5, [7], 3)
        state = module.state_dict()
        manifest = state_dict_manifest(state)
        assert set(manifest) == set(state)
        assert manifest["net.layers.0.weight"] == {"shape": [5, 7],
                                                   "dtype": "float64"}

    def test_digest_is_content_addressed(self):
        module = MLP(5, [7], 3, rng=np.random.default_rng(0))
        state = module.state_dict()
        assert state_dict_digest(state) == state_dict_digest(dict(state))
        mutated = {k: v.copy() for k, v in state.items()}
        key = next(iter(mutated))
        mutated[key][0] += 1
        assert state_dict_digest(state) != state_dict_digest(mutated)
        # dtype changes alone also change the digest
        recast = {k: v.astype(np.float32) for k, v in state.items()}
        assert state_dict_digest(state) != state_dict_digest(recast)
