"""Tests for the FixMatch module."""

import numpy as np

from repro.modules import FixMatchConfig, FixMatchModule


FAST_CONFIG = FixMatchConfig()


class TestFixMatchModule:
    def test_produces_taglet_above_chance(self, module_input, fmd_test_data):
        taglet = FixMatchModule(FAST_CONFIG).train(module_input)
        assert taglet.accuracy(*fmd_test_data) > 2.0 / module_input.num_classes

    def test_probabilities_valid(self, module_input, fmd_test_data):
        taglet = FixMatchModule(FAST_CONFIG).train(module_input)
        probs = taglet.predict_proba(fmd_test_data[0][:8])
        assert probs.shape == (8, module_input.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(8))

    def test_works_without_unlabeled_data(self, module_input, fmd_test_data):
        import copy

        no_unlabeled = copy.copy(module_input)
        no_unlabeled.unlabeled_features = np.zeros(
            (0, module_input.labeled_features.shape[1]))
        taglet = FixMatchModule(FAST_CONFIG).train(no_unlabeled)
        assert taglet.accuracy(*fmd_test_data) > 1.0 / module_input.num_classes

    def test_works_without_auxiliary_data(self, module_input_no_aux, fmd_test_data):
        taglet = FixMatchModule(FAST_CONFIG).train(module_input_no_aux)
        assert taglet.accuracy(*fmd_test_data) > 1.0 / module_input_no_aux.num_classes

    def test_confidence_threshold_one_disables_pseudo_labels(self, module_input,
                                                             fmd_test_data):
        config = FixMatchConfig(aux_epochs=1, head_warmup_epochs=5, epochs=2,
                                confidence_threshold=1.1)
        taglet = FixMatchModule(config).train(module_input)
        # Training must still work, relying only on the supervised term.
        assert taglet.predict_proba(fmd_test_data[0][:3]).shape[1] == \
            module_input.num_classes

    def test_module_name(self, module_input):
        assert FixMatchModule(FAST_CONFIG).train(module_input).name == "fixmatch"
