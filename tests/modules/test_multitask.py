"""Tests for the Multi-task module."""

import numpy as np
import pytest

from repro.modules import MultiTaskConfig, MultiTaskModule
from repro.nn import (ReplayStats, collect_replay_stats, default_dtype,
                      use_graph_replay)


FAST_CONFIG = MultiTaskConfig()


class TestMultiTaskModule:
    def test_produces_taglet_above_chance(self, module_input, fmd_test_data):
        taglet = MultiTaskModule(FAST_CONFIG).train(module_input)
        accuracy = taglet.accuracy(*fmd_test_data)
        assert accuracy > 2.0 / module_input.num_classes

    def test_probabilities_shape(self, module_input, fmd_test_data):
        taglet = MultiTaskModule(FAST_CONFIG).train(module_input)
        probs = taglet.predict_proba(fmd_test_data[0][:6])
        assert probs.shape == (6, module_input.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6))

    def test_without_auxiliary_degenerates_to_finetuning(self, module_input_no_aux,
                                                         fmd_test_data):
        taglet = MultiTaskModule(FAST_CONFIG).train(module_input_no_aux)
        assert taglet.accuracy(*fmd_test_data) > 1.0 / module_input_no_aux.num_classes

    def test_aux_loss_weight_zero_still_trains(self, module_input, fmd_test_data):
        config = MultiTaskConfig(epochs=8, aux_loss_weight=0.0)
        taglet = MultiTaskModule(config).train(module_input)
        assert taglet.accuracy(*fmd_test_data) > 1.0 / module_input.num_classes

    def test_module_name(self, module_input):
        assert MultiTaskModule(FAST_CONFIG).train(module_input).name == "multitask"

    def test_deterministic_given_seed(self, module_input, fmd_test_data):
        a = MultiTaskModule(FAST_CONFIG).train(module_input)
        b = MultiTaskModule(FAST_CONFIG).train(module_input)
        np.testing.assert_allclose(a.predict_proba(fmd_test_data[0][:5]),
                                   b.predict_proba(fmd_test_data[0][:5]))


class TestMultiTaskReplay:
    # The joint step replays as one compiled DAG; it must train exactly the
    # weights the eager step does, whatever lambda is (0.0 included: the
    # auxiliary gradient is multiplied by zero, not skipped).
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("aux_loss_weight", [1.0, 0.0])
    def test_weights_identical_with_replay_on_and_off(self, module_input,
                                                      dtype, aux_loss_weight):
        config = MultiTaskConfig(epochs=2, aux_loss_weight=aux_loss_weight)

        def run(replay):
            stats = ReplayStats()
            with default_dtype(dtype), use_graph_replay(replay), \
                    collect_replay_stats(stats):
                taglet = MultiTaskModule(config).train(module_input)
            state = taglet.model.state_dict()
            return {name: value.tobytes() for name, value in state.items()}, \
                stats

        replayed, stats = run(True)
        eager, eager_stats = run(False)
        assert replayed == eager
        assert stats.captures > 0 and stats.replays > 0
        assert stats.fallbacks == {}
        assert eager_stats.captures == 0 and eager_stats.replays == 0
