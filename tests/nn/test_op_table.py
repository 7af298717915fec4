"""Every op-table entry has a gradient-fuzz case and a differential case.

A new op costs one entry in :data:`repro.nn.ops.TABLE` plus one case in
the gradient fuzz (``test_grad_properties.py``) and one in the
replay-vs-eager differential suite (``test_replay_dag.py``).  These tests
make that a checked property: they fail when an entry has no case in
either suite, and when the fuzz case named for an entry never runs the
entry's forward kernel or one of its VJP kernels.  They also pin that the
table is the only way to build a graph node: every node's backward is the
closure :func:`repro.nn.tensor.apply` makes, and ``Tensor`` builds nodes
only through ``+``, ``*``, ``relu`` and ``tanh``.
"""

import pytest

from repro.nn import Tensor, ops
from repro.nn.tensor import apply

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


#: the code object of the backward closure every ``apply`` node carries
_APPLY_BACKWARD = apply(ops.RELU, (Tensor([1.0], requires_grad=True),)
                        )._backward.__code__


def _graph_nodes(root):
    """Every node reachable from ``root`` that carries a backward."""
    nodes, seen, pending = [], set(), [root]
    while pending:
        node = pending.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        nodes.append(node)
        pending.extend(node._parents)
    return nodes


@pytest.mark.parametrize("builder", fuzz.ALL_CASES, ids=lambda b: b.__name__)
def test_every_graph_node_backward_comes_from_apply(builder):
    root = fuzz.check_gradients(builder, 0, *fuzz.F64)
    nodes = _graph_nodes(root)
    assert nodes
    for node in nodes:
        assert node._backward.__code__ is _APPLY_BACKWARD, node


def test_tensor_builds_nodes_only_through_table_ops():
    methods = {name for name, value in vars(Tensor).items()
               if callable(value) and not isinstance(value, staticmethod)}
    assert methods == {"__init__", "__repr__", "item", "copy", "zero_grad",
                       "_accumulate", "__add__", "__radd__", "__mul__",
                       "__rmul__", "relu", "tanh", "backward"}
