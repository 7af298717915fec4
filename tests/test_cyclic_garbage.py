"""Graphs die with their step: the training path leaves no cyclic garbage.

A training step's graph (activations, frames, intermediate gradients), a
leaf-chain trace and a dropped workspace must be freed by reference
counting when the program drops them, so that peak memory follows what the
program holds rather than when the cyclic collector runs.  Each case runs
under ``gc.DEBUG_SAVEALL``, which keeps everything the collector would
have freed in ``gc.garbage``, and asserts that the collection found
nothing.
"""

import collections
import gc
from contextlib import contextmanager

import numpy as np

from repro.core import Controller, ControllerConfig, Task
from repro.nn import leaf_chain
from repro.nn.modules import Linear, ReLU, Sequential
from repro.workspace import Workspace, WorkspaceSpec

from .conftest import TEST_GRAPH_SPEC, TEST_WORLD_SPEC


@contextmanager
def cyclic_garbage():
    """Yield a list that, after the block, holds the type counts of every
    object only the cyclic collector could free."""
    found = []
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield found
        gc.collect()
        found.extend(collections.Counter(
            type(obj).__name__ for obj in gc.garbage).most_common())
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]


def _fmd_task(workspace, backbone):
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    return Task.from_split(split, scads=workspace.scads, backbone=backbone,
                           wanted_num_related_class=3,
                           images_per_related_class=8)


def test_a_controller_run_leaves_no_cyclic_garbage(tiny_workspace,
                                                   tiny_backbone):
    # The warm-up pays one-time costs (imports, the cached ZSL-KG pretrain).
    Controller(config=ControllerConfig(seed=0)).run(
        _fmd_task(tiny_workspace, tiny_backbone))
    with cyclic_garbage() as found:
        Controller(config=ControllerConfig(seed=0)).run(
            _fmd_task(tiny_workspace, tiny_backbone))
    assert not found, f"cyclic garbage (type, count): {found}"


def test_a_dropped_workspace_leaves_no_cyclic_garbage():
    spec = WorkspaceSpec(graph=TEST_GRAPH_SPEC, world=TEST_WORLD_SPEC,
                         scads_images_per_concept=30, seed=0)
    with cyclic_garbage() as found:
        workspace = Workspace(spec)
        workspace.backbones.get("resnet50")
        del workspace
    assert not found, f"cyclic garbage (type, count): {found}"


def test_a_dropped_leaf_chain_leaves_no_cyclic_garbage():
    rng = np.random.default_rng(0)
    model = Sequential(Linear(6, 5, rng=rng), ReLU(), Linear(5, 3, rng=rng))
    x = rng.normal(size=(4, 6))
    with cyclic_garbage() as found:
        chain = leaf_chain(model, 6, np.float64)
        chain(x)
        del chain
    assert not found, f"cyclic garbage (type, count): {found}"
