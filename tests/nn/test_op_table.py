"""Every op-table entry has a gradient-fuzz case and a differential case.

A new op costs one entry in :data:`repro.nn.ops.TABLE` plus one case in
the gradient fuzz (``test_grad_properties.py``) and one in the
replay-vs-eager differential suite (``test_replay_dag.py``).  These tests
make that a checked property: they fail when an entry has no case in
either suite, and when the fuzz case named for an entry never runs the
entry's forward kernel or one of its VJP kernels.
"""

import pytest

from repro.nn import ops

from . import test_grad_properties as fuzz
from . import test_replay_dag as differential


def test_every_entry_has_a_gradient_fuzz_case():
    assert sorted(fuzz.TABLE_CASES) == sorted(ops.TABLE)
    assert all(case in fuzz.ALL_CASES for case in fuzz.TABLE_CASES.values())


def test_every_entry_has_a_differential_case():
    assert sorted(differential.TABLE_CASES) == sorted(ops.TABLE)


@pytest.mark.parametrize("name", sorted(ops.TABLE))
def test_fuzz_case_runs_every_kernel_of_its_entry(name, monkeypatch):
    op = ops.TABLE[name]
    calls = set()

    def spy(label, kernel):
        def wrapped(*args):
            calls.add(label)
            return kernel(*args)
        return wrapped

    monkeypatch.setitem(vars(op), "forward", spy("forward", op.forward))
    monkeypatch.setitem(vars(op), "grads", tuple(
        (target, spy(target, kernel)) for target, kernel in op.grads))
    fuzz.check_gradients(fuzz.TABLE_CASES[name], 0, *fuzz.F64)
    assert calls == {"forward"} | {target for target, _ in op.grads}
