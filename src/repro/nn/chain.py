"""The compiled inference forward: a model's leaf layers as a chain of
op-table kernels.

:func:`leaf_chain` traces one forward of a model and keeps it when every
trace record (``(op, frame, inputs, out)``, one per
:func:`~repro.nn.tensor.apply`) is a one-input op of the op table
(:mod:`repro.nn.ops`) fed by the previous one, from the input to the
output.  Each leaf keeps its op and the parameters ``p`` of the traced
frame.  Calling the resulting
:class:`LeafChain` runs each leaf's forward kernel on a fresh frame, so
NumPy allocates every output: the same calls, in the same order,
as the eager ``no_grad`` tape (:func:`repro.nn.predict_logits`), without
tensors, and without any engine state — concurrent calls need no lock.

It is the one compiled inference forward: the servable end model
(:class:`repro.serve.ServableModel`), FixMatch's pseudo-label view and the
ZSL-KG validation loss run it.  The graph replay executor
(:mod:`repro.nn.replay`) compiles training steps only.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .modules import Module
from .ops import Frame, Op
from .tensor import Tensor, default_dtype, no_grad, trace_ops

__all__ = ["LeafChain", "leaf_chain"]


class LeafChain:
    """A model's forward as ``(op, params)`` per traced op.

    A call gives each leaf a fresh :class:`~repro.nn.ops.Frame` with its
    parameters and input.  Kernels read the parameters through ``.data``
    on every call, so weight updates and optimizer-arena rebinding are
    picked up without retracing.  A chain holds no reference cycle, so
    dropping it frees its parameters at once.
    """

    def __init__(self, leaves: List[Tuple[Op, tuple]],
                 dtype: np.dtype):
        self.leaves = leaves
        self.dtype = dtype

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # The ``Tensor(x)`` cast of the eager forward.
        x = np.asarray(x, dtype=self.dtype)
        for op, params in self.leaves:
            frame = Frame()
            frame.p = params
            frame.x = x
            op.forward(frame)
            x = frame.out
        return x


def leaf_chain(model: Module, width: int, dtype) -> Optional[LeafChain]:
    """Trace ``model``'s forward on ``width``-feature rows in ``dtype``.

    Returns None when the model is not a chain of one-input table ops (a
    sum, a product or a loss, an op not fed by the previous one, or array
    math outside the op table).  Containers run no op, so they leave no
    record.
    """
    dtype = np.dtype(dtype)
    records: list = []
    with default_dtype(dtype), no_grad(), trace_ops(records):
        current = Tensor(np.zeros((2, width), dtype=dtype))
        out = model(current)
    leaves = []
    for op, frame, inputs, produced in records:
        if op.scalar or len(inputs) != 1 or inputs[0] is not current:
            return None
        leaves.append((op, frame.p))
        current = produced
    return LeafChain(leaves, dtype) if current is out else None
