"""The intermediate phase (Eq. 1) shared by the Transfer and FixMatch modules.

Both modules fine-tune the backbone on the selected auxiliary data with the
same recipe, so :func:`repro.modules.base.fine_tune_on_auxiliary` trains it
once per selection and hands later callers a private copy.  Sharing must not
change a single byte: every module's weights equal its standalone run on a
private copy of the selection (``dataclasses.replace`` starts an empty memo).
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.modules import (FixMatchConfig, FixMatchModule, TransferConfig,
                           TransferModule)
from repro.modules import base
from repro.modules.base import fine_tune_on_auxiliary
from repro.nn import default_dtype, use_graph_replay

TRANSFER = TransferConfig(aux_epochs=2, target_epochs=3)
FIXMATCH = FixMatchConfig(aux_epochs=2, head_warmup_epochs=2, epochs=1)


def private_copy(data):
    """``data`` on a copy of its selection, which starts with an empty memo."""
    return replace(data, auxiliary=replace(data.auxiliary))


def weights(taglet):
    return taglet.model.state_dict()


def assert_same_bytes(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.fixture()
def phase_runs(monkeypatch):
    """Counts the times the intermediate phase actually trains."""
    calls = []
    real = base.train_classifier

    def counting(model, features, labels, config):
        calls.append(config)
        return real(model, features, labels, config)

    monkeypatch.setattr(base, "train_classifier", counting)
    return calls


class TestSharedPhase:
    @pytest.mark.parametrize("replay", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_do_not_depend_on_the_sibling(self, module_input, dtype,
                                                  replay, phase_runs):
        transfer, fixmatch = TransferModule(TRANSFER), FixMatchModule(FIXMATCH)
        with default_dtype(dtype), use_graph_replay(replay):
            transfer_alone = weights(transfer.train(private_copy(module_input)))
            fixmatch_alone = weights(fixmatch.train(private_copy(module_input)))
            assert len(phase_runs) == 2
            # Transfer first, then FixMatch on the same selection ...
            shared = private_copy(module_input)
            transfer_first = weights(transfer.train(shared))
            fixmatch_second = weights(fixmatch.train(shared))
            # ... and the other way round.
            shared = private_copy(module_input)
            fixmatch_first = weights(fixmatch.train(shared))
            transfer_second = weights(transfer.train(shared))
        assert len(phase_runs) == 4
        assert next(iter(transfer_alone.values())).dtype == dtype
        for got in (transfer_first, transfer_second):
            assert_same_bytes(got, transfer_alone)
        for got in (fixmatch_first, fixmatch_second):
            assert_same_bytes(got, fixmatch_alone)

    def test_phase_trains_once_per_selection(self, module_input, phase_runs):
        data = private_copy(module_input)
        TransferModule(TRANSFER).train(data)
        FixMatchModule(FIXMATCH).train(data)
        TransferModule(TRANSFER).train(data)
        assert len(phase_runs) == 1
        assert len(data.auxiliary._fine_tuned) == 1
        # A new selection is a new run: it pays for the phase again.
        FixMatchModule(FIXMATCH).train(private_copy(module_input))
        assert len(phase_runs) == 2
        # So does another engine dtype on the same selection.
        with default_dtype(np.float32):
            TransferModule(TRANSFER).train(data)
        assert len(phase_runs) == 3
        assert len(data.auxiliary._fine_tuned) == 2

    @pytest.mark.parametrize("override", [{"aux_epochs": 3},
                                          {"aux_lr": 0.01}])
    def test_another_recipe_trains_separately(self, module_input, override,
                                              phase_runs):
        transfer = TransferModule(replace(TRANSFER, **override))
        alone = weights(transfer.train(private_copy(module_input)))
        shared = private_copy(module_input)
        FixMatchModule(FIXMATCH).train(shared)
        after_fixmatch = weights(transfer.train(shared))
        assert len(phase_runs) == 3
        assert len(shared.auxiliary._fine_tuned) == 2
        assert_same_bytes(after_fixmatch, alone)

    def test_models_share_no_arrays(self, module_input):
        data = private_copy(module_input)

        def phase():
            return fine_tune_on_auxiliary(
                data, np.random.default_rng(data.seed), epochs=2,
                batch_size=128, lr=0.02, momentum=0.9)

        trained, loaded = phase(), phase()
        (memo,) = data.auxiliary._fine_tuned.values()
        before = {name: value.copy() for name, value in memo.items()}
        arrays = [p.data for p in trained.parameters()]
        arrays += [p.data for p in loaded.parameters()]
        arrays += list(memo.values())
        for i, first in enumerate(arrays):
            for second in arrays[i + 1:]:
                assert not np.shares_memory(first, second)

        for param in trained.parameters():
            param.data[...] = 7.0
        assert_same_bytes(loaded.state_dict(), before)
        assert_same_bytes(memo, before)
        for param in loaded.parameters():
            param.data[...] = -7.0
        assert_same_bytes(phase().state_dict(), before)

    def test_concurrent_callers_train_once(self, module_input, phase_runs):
        # More threads than cores and a short switch interval, so callers
        # interleave inside the check-then-train a lost update would break.
        data = private_copy(module_input)
        states = []

        def phase():
            model = fine_tune_on_auxiliary(
                data, np.random.default_rng(data.seed), epochs=1,
                batch_size=128, lr=0.02, momentum=0.9)
            states.append(model.state_dict())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=phase) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(states) == 8
        assert len(phase_runs) == 1
        for state in states[1:]:
            assert_same_bytes(state, states[0])

    def test_caller_rng_advances_as_if_trained(self, module_input):
        data = private_copy(module_input)
        after = []
        for _ in range(2):
            rng = np.random.default_rng(data.seed)
            fine_tune_on_auxiliary(data, rng, epochs=1, batch_size=128,
                                   lr=0.02, momentum=0.9)
            after.append(rng.bit_generator.state)
        assert after[0] == after[1]

    def test_rng_state_is_part_of_the_key(self, module_input, phase_runs):
        data = private_copy(module_input)
        rng = np.random.default_rng(data.seed)
        for _ in range(2):
            fine_tune_on_auxiliary(data, rng, epochs=1, batch_size=128,
                                   lr=0.02, momentum=0.9)
        # The second call drew its head from an advanced stream: no hit.
        assert len(phase_runs) == 2

    def test_empty_selection_takes_the_fallback(self, module_input_no_aux,
                                                phase_runs):
        transfer = TransferModule(TRANSFER).train(module_input_no_aux)
        fixmatch = FixMatchModule(FIXMATCH).train(module_input_no_aux)
        assert phase_runs == []
        assert module_input_no_aux.auxiliary._fine_tuned == {}
        for taglet in (transfer, fixmatch):
            assert taglet.model.num_classes == module_input_no_aux.num_classes
