"""A small reverse-mode automatic differentiation engine on NumPy arrays.

This is the training substrate for the TAGLETS reproduction.  All modules,
baselines, backbones, and the end model are trained through this engine.

Every graph node comes from :func:`apply`, which runs one entry of the op
table (:mod:`repro.nn.ops`): the entry's forward kernel computes the node's
value, and its VJP kernels are the node's backward.  The graph replay
executor (:mod:`repro.nn.replay`) and the leaf chain (:mod:`repro.nn.chain`)
run the same kernels, so there is one definition of each op.  A
:class:`Tensor` keeps references to its parents; :meth:`Tensor.backward`
orders the reachable nodes by creation stamp and calls each node's backward
once.

:func:`apply` is also the only producer of trace records: inside a
:func:`trace_ops` scope every application appends ``(op, frame, inputs,
out)``, where ``frame`` is the :class:`~repro.nn.ops.Frame` its forward
kernel just ran on.  The frame carries everything else the op read: the
parameters ``p``, a loss's targets ``t``, sample weights ``w`` and
squared-error ``denom``.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import ops

ArrayLike = Union[np.ndarray, float, int, Sequence]

# --------------------------------------------------------------------------- #
# Engine configuration: scoped state
# --------------------------------------------------------------------------- #
# Every engine setting lives in a ``ContextVar``, so a scope (``default_dtype``,
# ``no_grad``, ``use_graph_replay``) changes the setting for the current
# thread (or asyncio task) only and restores it with ``var.reset(token)``.
# Concurrent callers with different settings never see each other's scopes,
# and a new thread starts at the defaults below.
_DEFAULT_DTYPE: ContextVar = ContextVar("default_dtype", default=np.float64)

# Whether static training loops run through the whole-graph capture/replay
# executor (:mod:`repro.nn.replay`).
_GRAPH_REPLAY: ContextVar = ContextVar("graph_replay", default=True)

_GRAD_ENABLED: ContextVar = ContextVar("grad_enabled", default=True)

# ---------------------------------------------------------------------------- #
# Op tracing (the capture phase of the graph replay executor)
# ---------------------------------------------------------------------------- #
# While a trace is active in the current context, every :func:`apply`
# appends ``(op, frame, inputs, out)`` to the recording list.  The replay
# compiler (:mod:`repro.nn.replay`) runs one eager training step under this
# context and rebuilds the op DAG from the records; the leaf chain
# (:mod:`repro.nn.chain`) reads one inference forward the same way.
# Context-local, so a trace on one thread never records another thread's
# eager ops.
_TRACE_RECORDS: ContextVar = ContextVar("trace_records", default=None)


@contextmanager
def _scoped(var: ContextVar, value):
    """Set ``var`` to ``value`` for the duration of the ``with`` block."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


@contextmanager
def trace_ops(records: List[tuple]):
    """Record every traced op in the current context into ``records``."""
    if _TRACE_RECORDS.get() is not None:
        raise RuntimeError("op tracing is not reentrant")
    with _scoped(_TRACE_RECORDS, records):
        yield records


# Monotonically increasing creation stamp.  Every tensor records the counter
# value at construction; since an operation's output is always created after
# its inputs, creation order is a valid topological order of any autograd
# graph, which lets ``backward`` sort reachable nodes with a single C-level
# sort instead of a two-phase DFS.  ``itertools.count`` is atomic in CPython,
# so the stamp is safe when several threads build graphs at once.
_SEQ = itertools.count()


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (``float64`` unless configured)."""
    return _DEFAULT_DTYPE.get()


def _check_dtype(dtype):
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    return dtype.type


def default_dtype(dtype):
    """Temporarily switch the engine's default dtype (the float32 fast mode)."""
    return _scoped(_DEFAULT_DTYPE, _check_dtype(dtype))


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


def no_grad():
    """Inference mode: operations inside record no backward tape at all.

    Outputs have ``requires_grad=False`` and keep no parent references, so
    eval-time forwards (``predict_logits``, the leaf-chain trace)
    allocate no closures and retain no intermediate arrays.
    """
    return _scoped(_GRAD_ENABLED, False)


def graph_replay_enabled() -> bool:
    return _GRAPH_REPLAY.get()


def use_graph_replay(enabled: bool):
    """Toggle the whole-graph capture/replay executor for static loops.

    This scope is the engine's only replay switch: every
    :class:`~repro.nn.GraphReplay` stepper reads it on each step, so one
    context manager switches the executor for every step taken inside it
    (the :class:`~repro.core.Controller` opens it from its ``replay``
    config field).  An inner scope overrides an outer one.
    """
    return _scoped(_GRAPH_REPLAY, bool(enabled))


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    dtype = dtype if dtype is not None else _DEFAULT_DTYPE.get()
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        The underlying array (copied only when dtype conversion is needed).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_seq")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        self._seq = next(_SEQ)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Operations (each one table op)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply(ops.ADD, (self, other))

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return apply(ops.MUL, (self, other))

    __rmul__ = __mul__

    def relu(self) -> "Tensor":
        return apply(ops.RELU, (self,))

    # ------------------------------------------------------------------ #
    # Graph traversal
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).  The
        reverse-topological order of the graph is derived from the tensors'
        creation stamps (parents are always created before children).  The
        order is not kept: the root holds no reference to its own graph, so
        the graph is freed by reference counting when the caller drops it.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require gradients")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, self.data.dtype)

        self._accumulate(grad)
        if self._backward is None:
            return
        # Collect reachable op-nodes (leaves carry no backward closure and
        # never need visiting) and order them by descending creation stamp.
        nodes = [self]
        seen = {id(self)}
        pending = [self]
        while pending:
            for parent in pending.pop()._parents:
                if parent._backward is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    nodes.append(parent)
                    pending.append(parent)
        nodes.sort(key=_creation_stamp, reverse=True)
        for node in nodes:
            if node.grad is not None:
                node._backward(node.grad)


def _creation_stamp(node: Tensor) -> int:
    return node._seq


def apply(op: ops.Op, inputs: Tuple[Tensor, ...],
          params: Tuple[Optional[Tensor], ...] = (), **attrs) -> Tensor:
    """Run a table op (:mod:`repro.nn.ops`) on the tape.

    The forward kernel runs on a fresh frame, so NumPy allocates every
    buffer; the backward closure calls the op's VJP kernels the same way.
    ``params`` fill the frame's parameter slots (None for an absent bias),
    and ``attrs`` set any other frame attribute the op reads.  Inside a
    :func:`trace_ops` scope the application is recorded as ``(op, frame,
    inputs, out)``.
    """
    n = ops.Frame()
    for name, tensor in zip(op.inputs, inputs):
        setattr(n, name, tensor.data)
    n.p = params
    vars(n).update(attrs)
    parents = inputs + tuple(p for p in params if p is not None)
    requires = any(p.requires_grad for p in parents) and is_grad_enabled()
    n.train = requires
    op.forward(n)
    out = Tensor(n.out, requires_grad=requires)
    if requires:
        sources = dict(zip(op.inputs, inputs))

        def backward(grad: np.ndarray) -> None:
            for target, kernel in op.grads:
                source = (params[target] if type(target) is int
                          else sources[target])
                if source is not None and source.requires_grad:
                    source._accumulate(kernel(n, grad, None))

        out._parents = parents
        out._backward = backward
    records = _TRACE_RECORDS.get()
    if records is not None:
        records.append((op, n, inputs, out))
    return out
