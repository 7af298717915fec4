"""Every op-table entry has a gradient-fuzz case and a differential case,
and a TAGLETS run applies every entry.

A new op costs one entry in :data:`repro.nn.ops.TABLE` plus one case in
the gradient fuzz (``test_grad_properties.py``) and one in the
replay-vs-eager differential suite (``test_replay_dag.py``).  These tests
make that a checked property: they fail when an entry has no case in
either suite, and when the fuzz case named for an entry never runs the
entry's forward kernel or one of its VJP kernels.  An entry whose forward
no pipeline run reaches is an op kept alive by its tests, so a default
``Controller.run`` must run every forward kernel.  They also pin that the
table is the only way to build a graph node: every node's backward is the
closure :func:`repro.nn.tensor.apply` makes, and ``Tensor`` builds nodes
only through ``+``, ``*`` and ``relu``.
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


def test_a_taglets_run_applies_every_entry(tiny_workspace, tiny_backbone,
                                           monkeypatch):
    from repro.core import Controller, ControllerConfig, Task
    from repro.modules.zsl_kg import ZslKgModule

    # A cached pretrain would skip the only squared-error loss.
    monkeypatch.setattr(ZslKgModule, "_pretrained_cache", {})
    ran = set()

    def spy(name, forward):
        def wrapped(frame):
            ran.add(name)
            return forward(frame)
        return wrapped

    for name, op in ops.TABLE.items():
        monkeypatch.setitem(vars(op), "forward", spy(name, op.forward))
    split = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=tiny_workspace.scads,
                           backbone=tiny_backbone,
                           wanted_num_related_class=3,
                           images_per_related_class=8)
    Controller(config=ControllerConfig(seed=0)).run(task)
    unapplied = sorted(set(ops.TABLE) - ran)
    assert not unapplied, f"entries no TAGLETS run applies: {unapplied}"


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
                       "__rmul__", "relu", "backward"}
