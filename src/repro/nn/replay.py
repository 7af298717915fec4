"""Whole-graph capture/replay executor for static training loops.

The eager engine rebuilds the autograd tape on every training step: each op
allocates a :class:`~repro.nn.Tensor`, a backward closure, and fresh gradient
arrays, and ``backward`` re-walks the graph.  For the training loops in this
reproduction the graph shape never changes between steps — same model, same
loss, same batch shape — so all of that per-step Python work is redundant.

:class:`GraphReplay` removes it.  The first time a step signature is seen it
runs the ordinary eager step while *tracing* the op DAG: a context-local hook
records every ``Module.__call__`` (``("module", module, input, output)``),
every traced tensor combinator (``("add"/"mul", a, b, out)``), and every
fused loss (``("loss", kind, logits, targets, extra, out)``).  The compiler
walks the records backward from the loss root, resolving each tensor to the
record that produced it or to a declared step input, and emits a kernel plan
in the original execution order.  The plan is a general DAG, not just a
linear chain: it supports fan-out (one activation consumed by several
consumers), fan-in (summed / weighted-sum losses), and weight sharing (the
same layer applied to several inputs, as in FixMatch's two-view consistency
step), with gradient contributions written once and accumulated thereafter
in exactly the eager backward order.  Every later step with the same
signature replays raw NumPy kernels bound to preallocated buffers: no
tensors, no closures, no tape, no topological sort.  The arithmetic is
kernel-for-kernel identical to the fused eager path, so replayed training is
bit-identical to eager training (asserted by ``tests/nn/test_replay.py`` and
``tests/nn/test_replay_dag.py``).  One buffer-reuse rule shrinks the working
set: a ReLU whose input is a ``Linear`` output read by nothing else, with
neither node the plan root, runs in place over that output and shares its
grad buffer with the ``Linear`` (:func:`_reuse_relu_buffers`).

Fallback rules (checked on *every* step, before replaying; inside
``run_epoch`` or an ``epoch()`` scope the model-structure rule is checked
once per epoch):

* replay disabled (``TrainConfig.replay=False``, ``use_graph_replay(False)``,
  or ``seed_compat_mode()``), fused ops disabled, or gradients disabled
  → eager step;
* batch shape/dtype or target shape/dtype changed → separate plan per
  signature (the capture step for a new signature runs eagerly);
* model structure changed — layer added/removed/replaced, parameter shape,
  dtype or ``requires_grad`` changed, a dropout or batch-norm layer's mode
  flipped, batch-norm momentum/eps/running-stat dtype changed, the
  optimizer's parameter list changed, or the engine default dtype changed →
  recapture (an eager step) under the new signature; stale plans are never
  replayed;
* unsupported structure (tensor math outside the traced op set, constants
  created inside the step function, loss targets that are not step inputs)
  → the signature is marked unsupported and every step with it runs eagerly,
  with the reason recorded in :attr:`ReplayStats.fallbacks`.

Supported leaf layers: ``Linear`` (2-D fused path), ``ReLU``, ``Tanh``,
``Identity``, ``Dropout`` (in eval mode a no-op; in training mode the mask
is drawn from the layer's own RNG exactly as the eager forward does, so the
RNG stream stays aligned), and ``BatchNorm1d`` (train mode recomputes batch
statistics and updates the running stats exactly as eager does — including
rebinding fresh running-stat arrays — and eval mode normalizes with the live
running stats; the backward treats the batch statistics as constants, which
is the eager engine's semantic).  Supported glue ops: tensor ``+`` and ``*``
(e.g. summed or weighted-sum losses).  Supported losses: the fused
``cross_entropy`` (hard targets, with optional per-sample weights),
``soft_cross_entropy``, and the fused squared-error losses (``l2_loss`` /
``mse_loss``).  Optimizer updates reuse ``optimizer.step()`` itself —
gradients are written into preallocated buffers (the optimizer's flat
gradient views when available) and bound to ``param.grad``, so SGD momentum
and Adam state evolve exactly as in eager mode.

Beyond the classic ``step(x, y)`` chain API, the executor exposes:

* :meth:`GraphReplay.step_fn` — capture/replay an arbitrary step *function*
  ``fn(model, batch)`` returning a scalar loss Tensor (FixMatch's two-view
  consistency step runs through this);
* :meth:`GraphReplay.forward` — a compiled inference forward returning raw
  logits (FixMatch's pseudo-label view);
* :meth:`GraphReplay.eval_loss` — a compiled forward + loss value;
* :meth:`GraphReplay.run_epoch` — the fused-epoch API: the structural
  fingerprint is checked once per (shape, dtype) signature per epoch instead
  of per step, amortizing the per-step guard across a whole epoch.  The
  caller promises not to mutate the model structure mid-epoch (the training
  loops in :mod:`repro.nn.training` cannot);
* :meth:`GraphReplay.epoch` — the same once-per-epoch guard for loops that
  call :meth:`~GraphReplay.step_fn` / :meth:`~GraphReplay.forward`
  directly (FixMatch, the multi-task joint step): inside the scope the
  fingerprint is computed once per model mode, under the same promise.

A training step called with ``compute_loss=False`` skips every scalar no
one reads (:func:`_value_elision`): the loss values and the adds/muls that
only combine them.  Gradients do not depend on those scalars, so the update
is unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import functional as F
from .modules import (BatchNorm1d, Dropout, Linear, Module, ReLU, Tanh,
                      trace_module_calls)
from .optim import Optimizer
from .tensor import (Tensor, _unbroadcast, fused_ops_enabled,
                     get_default_dtype, graph_replay_enabled, inference_mode,
                     is_grad_enabled)

__all__ = ["GraphReplay", "ReplayStats", "ReplayUnsupported", "compile_step",
           "collect_replay_stats"]


class ReplayUnsupported(RuntimeError):
    """Raised during capture when a traced step cannot be compiled."""


_LOSS_FNS: Dict[str, Callable] = {
    "cross_entropy": F.cross_entropy,
    "soft_cross_entropy": F.soft_cross_entropy,
    "l2": F.l2_loss,
}

# --------------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------------- #


class ReplayStats:
    """Counters exposed for tests and diagnostics.

    ``captures`` counts compile steps (which run eagerly exactly once per
    signature), ``replays`` counts compiled-kernel steps, and
    ``eager_steps`` counts every step that fell back to the eager engine,
    with the reasons tallied in :attr:`fallbacks` (reason → count).  On a
    static loop with replay enabled, ``eager_steps`` — and therefore
    ``fallback_count`` — must be zero; the pipeline regression tests assert
    exactly that.  Increments are lock-protected so one instance can collect
    from several threads at once.
    """

    def __init__(self) -> None:
        self.captures = 0
        self.replays = 0
        self.eager_steps = 0
        self.fallbacks: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return self.captures + self.replays + self.eager_steps

    @property
    def fallback_count(self) -> int:
        return sum(self.fallbacks.values())

    def add_capture(self) -> None:
        with self._lock:
            self.captures += 1

    def add_replay(self) -> None:
        with self._lock:
            self.replays += 1

    def add_eager(self, reason: str) -> None:
        with self._lock:
            self.eager_steps += 1
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ReplayStats(captures={self.captures}, replays={self.replays}, "
                f"eager_steps={self.eager_steps}, fallbacks={self.fallbacks})")


#: ambient stats sinks (see :func:`collect_replay_stats`); appended to every
#: GraphReplay created in the current context while the scope is active
_AMBIENT_SINKS: ContextVar = ContextVar("replay_stats_sinks", default=())


@contextmanager
def collect_replay_stats(stats: ReplayStats):
    """Collect replay counters from every stepper created in this scope.

    The :class:`~repro.core.Controller` wraps its run in this scope when
    ``ControllerConfig.replay_stats`` is set, so one counter aggregates every
    training loop in the pipeline (module fine-tuning, the ZSL-KG pretrain,
    FixMatch's two-view step, the multi-task joint step, end-model
    distillation).  The scope is context-local: steppers that other threads
    create are not counted, unless they open a scope on the same counter.
    """
    token = _AMBIENT_SINKS.set(_AMBIENT_SINKS.get() + (stats,))
    try:
        yield stats
    finally:
        _AMBIENT_SINKS.reset(token)


# --------------------------------------------------------------------------- #
# Compiled kernel nodes
# --------------------------------------------------------------------------- #
# Each node owns its preallocated forward/backward buffers and reads layer
# parameters through the live module attribute (``layer.weight.data``), so
# in-place parameter updates and ``load_state_dict`` swaps are picked up
# without recompiling.  Gradient deposit slots (``gw``/``gb``/``gin``/``ta``
# /``tb``/``tz``) are wired by the compiler: ``None`` means "not needed",
# otherwise the slot holds the target buffer — a producer node's grad buffer
# or an optimizer flat-gradient view — plus an ``*_acc`` flag.  The first
# contribution in backward-execution order writes the target; later ones
# accumulate through a private ``*_tmp`` buffer, reproducing the eager
# engine's write-then-add gradient accumulation bit for bit.


class _InputNode:
    """A step input, rebound on every replay (cast to the captured dtype)."""

    __slots__ = ("key", "cast_dtype")

    def __init__(self, key: str, cast_dtype):
        self.key = key
        self.cast_dtype = cast_dtype


class _LinearStep:
    """``x @ W + b`` and its three backward GEMMs.

    The GEMMs go through ``np.dot``, which hands a transposed operand to
    BLAS as a flag where ``np.matmul`` may copy it first; the results are
    bit-equal to ``@`` (``tests/nn/test_dot_kernels.py``).  A layer whose
    input, weight and output dtypes differ is not replayed: eager keeps
    each gradient in the dtype its op produced, which the step's
    preallocated gradient buffers cannot reproduce.
    """

    __slots__ = ("index", "layer", "requires_grad", "x", "out", "grad",
                 "gw", "gw_acc", "gw_tmp", "gb", "gb_acc", "gb_tmp",
                 "gin", "gin_acc", "gin_tmp",
                 "_src", "_src_rg")

    def __init__(self, layer: Linear, inp: Tensor, out: Tensor):
        if inp.ndim != 2:
            raise ReplayUnsupported("only the 2-D fused linear path is "
                                    "replayable")
        if not inp.data.dtype == layer.weight.data.dtype == out.data.dtype:
            raise ReplayUnsupported("a Linear layer mixing dtypes is not "
                                    "replayable")
        self.layer = layer
        self.x: Optional[np.ndarray] = None
        self.out = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.gw = self.gb = self.gin = None
        self.gw_acc = self.gb_acc = self.gin_acc = False
        self.gw_tmp = self.gb_tmp = self.gin_tmp = None

    def forward(self) -> None:
        layer = self.layer
        out = self.out
        np.dot(self.x, layer.weight.data, out=out)
        if layer.bias is not None:
            out += layer.bias.data

    def backward(self) -> None:
        layer = self.layer
        grad = self.grad
        if self.gw is not None:
            if self.gw_acc:
                np.dot(self.x.T, grad, out=self.gw_tmp)
                self.gw += self.gw_tmp
            else:
                np.dot(self.x.T, grad, out=self.gw)
            layer.weight.grad = self.gw
        if self.gb is not None:
            # ndarray.sum lowers to add.reduce; call it directly to skip
            # the np.sum dispatch layer (hot path: once per linear per step).
            if self.gb_acc:
                np.add.reduce(grad, axis=0, out=self.gb_tmp)
                self.gb += self.gb_tmp
            else:
                np.add.reduce(grad, axis=0, out=self.gb)
            layer.bias.grad = self.gb
        if self.gin is not None:
            if self.gin_acc:
                np.dot(grad, layer.weight.data.T, out=self.gin_tmp)
                self.gin += self.gin_tmp
            else:
                np.dot(grad, layer.weight.data.T, out=self.gin)


class _ReLUStep:
    """``max(x, 0)``; runs in place over its producer's buffer when
    :func:`_reuse_relu_buffers` allows it (then ``out is x``)."""

    __slots__ = ("index", "requires_grad", "x", "out", "grad", "mask",
                 "gin", "gin_acc", "gin_tmp",
                 "_src", "_src_rg")

    def __init__(self, layer: ReLU, inp: Tensor, out: Tensor):
        self.x: Optional[np.ndarray] = None
        # Allocated by the compiler only for nodes that run a backward, so
        # eval and forward-only plans carry no mask.
        self.mask: Optional[np.ndarray] = None
        self.out = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.gin = None
        self.gin_acc = False
        self.gin_tmp = None

    def forward(self) -> None:
        # The mask is taken before ``maximum`` may overwrite ``x``.
        if self.mask is not None:
            np.greater(self.x, 0, out=self.mask)
        np.maximum(self.x, 0, out=self.out)

    def backward(self) -> None:
        if self.gin is None:
            return
        if self.gin_acc:
            np.multiply(self.grad, self.mask, out=self.gin_tmp)
            self.gin += self.gin_tmp
        else:
            np.multiply(self.grad, self.mask, out=self.gin)


class _TanhStep:
    __slots__ = ("index", "requires_grad", "x", "out", "grad", "tmp",
                 "gin", "gin_acc", "gin_tmp",
                 "_src", "_src_rg")

    def __init__(self, layer: Tanh, inp: Tensor, out: Tensor):
        self.x: Optional[np.ndarray] = None
        self.out = np.empty_like(out.data)
        self.tmp = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.gin = None
        self.gin_acc = False
        self.gin_tmp = None

    def forward(self) -> None:
        np.tanh(self.x, out=self.out)

    def backward(self) -> None:
        if self.gin is None:
            return
        # Eager computes ``grad * (1 - out ** 2)``; ``out ** 2`` lowers to
        # an elementwise square, which np.square reproduces bit-for-bit.
        np.square(self.out, out=self.tmp)
        np.subtract(1.0, self.tmp, out=self.tmp)
        if self.gin_acc:
            np.multiply(self.grad, self.tmp, out=self.gin_tmp)
            self.gin += self.gin_tmp
        else:
            np.multiply(self.grad, self.tmp, out=self.gin)


class _DropoutStep:
    __slots__ = ("index", "requires_grad", "layer", "x", "out", "grad",
                 "mask", "gin", "gin_acc", "gin_tmp",
                 "_src", "_src_rg")

    def __init__(self, layer: Dropout, inp: Tensor, out: Tensor):
        self.layer = layer
        self.x: Optional[np.ndarray] = None
        self.mask: Optional[np.ndarray] = None
        self.out = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.gin = None
        self.gin_acc = False
        self.gin_tmp = None

    def forward(self) -> None:
        layer = self.layer
        x = self.x
        keep = 1.0 - layer.p
        # Draw from the layer's own RNG with the exact expression the eager
        # forward uses, keeping the RNG stream aligned with eager training.
        self.mask = (layer._rng.random(x.shape) < keep).astype(x.dtype) / keep
        np.multiply(x, self.mask, out=self.out)

    def backward(self) -> None:
        if self.gin is None:
            return
        if self.gin_acc:
            np.multiply(self.grad, self.mask, out=self.gin_tmp)
            self.gin += self.gin_tmp
        else:
            np.multiply(self.grad, self.mask, out=self.gin)


class _BatchNormStep:
    """BatchNorm1d kernel, mirroring the eager forward line for line.

    Train mode computes batch statistics and updates the running stats with
    the exact eager expression (allocating and *rebinding* fresh running
    arrays, so external holders of the old arrays see eager-identical
    behavior); eval mode reads the live running stats.  The statistics pass
    through the same ``Tensor()`` dtype cast the eager forward applies, and
    the backward treats them as constants — the eager engine's semantic —
    so ``grad_x = (grad * gamma) * scale`` in that exact multiply order.
    """

    __slots__ = ("index", "requires_grad", "layer", "training", "cast_dtype",
                 "x", "out", "grad", "meanbuf", "varbuf", "scalebuf",
                 "negmean", "diff", "norm", "t2", "scratch", "gmul", "_scale",
                 "gg", "gg_acc", "gg_tmp", "gb", "gb_acc", "gb_tmp",
                 "gin", "gin_acc", "gin_tmp",
                 "_src", "_src_rg")

    def __init__(self, layer: BatchNorm1d, inp: Tensor, out: Tensor):
        if inp.ndim != 2:
            raise ReplayUnsupported("BatchNorm1d replays on 2-D inputs only")
        self.layer = layer
        self.training = layer.training
        self.cast_dtype = np.dtype(get_default_dtype())
        in_dt = inp.data.dtype
        n, d = inp.shape
        self.x: Optional[np.ndarray] = None
        self.out = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        if self.training:
            self.meanbuf = np.empty(d, dtype=in_dt)
            self.varbuf = np.empty(d, dtype=in_dt)
            self.scalebuf = np.empty(d, dtype=in_dt)
        else:
            self.meanbuf = self.varbuf = None
            # Eval mode derives the scale from the running variance (whose
            # dtype is pinned by the fingerprint, so preallocating is safe).
            self.scalebuf = np.empty(d, dtype=layer.running_var.dtype)
        self.negmean = np.empty(d, dtype=self.cast_dtype)
        diff_dt = np.promote_types(in_dt, self.cast_dtype)
        self.diff = np.empty((n, d), dtype=diff_dt)
        norm_dt = np.promote_types(diff_dt, self.cast_dtype)
        self.norm = np.empty((n, d), dtype=norm_dt)
        self.t2 = np.empty((n, d),
                           dtype=np.promote_types(norm_dt,
                                                  layer.gamma.data.dtype))
        self.scratch = np.empty_like(out.data)
        self.gmul = np.empty_like(out.data)
        self._scale: Optional[np.ndarray] = None
        self.gg = self.gb = self.gin = None
        self.gg_acc = self.gb_acc = self.gin_acc = False
        self.gg_tmp = self.gb_tmp = self.gin_tmp = None

    def forward(self) -> None:
        layer = self.layer
        x = self.x
        if self.training:
            np.mean(x, axis=0, out=self.meanbuf)
            np.var(x, axis=0, out=self.varbuf)
            m = layer.momentum
            layer.running_mean = ((1 - m) * layer.running_mean
                                  + m * self.meanbuf)
            layer.running_var = ((1 - m) * layer.running_var
                                 + m * self.varbuf)
            np.add(self.varbuf, layer.eps, out=self.scalebuf)
            np.sqrt(self.scalebuf, out=self.scalebuf)
            np.divide(1.0, self.scalebuf, out=self.scalebuf)
            mean, scale = self.meanbuf, self.scalebuf
        else:
            mean = layer.running_mean
            np.add(layer.running_var, layer.eps, out=self.scalebuf)
            np.sqrt(self.scalebuf, out=self.scalebuf)
            np.divide(1.0, self.scalebuf, out=self.scalebuf)
            scale = self.scalebuf
        # The eager forward routes mean/scale through Tensor(), which casts
        # to the engine dtype; a no-op when the dtypes already agree.
        if mean.dtype != self.cast_dtype:
            mean = mean.astype(self.cast_dtype)
        if scale.dtype != self.cast_dtype:
            scale = scale.astype(self.cast_dtype)
        self._scale = scale
        np.negative(mean, out=self.negmean)
        np.add(x, self.negmean, out=self.diff)
        np.multiply(self.diff, scale, out=self.norm)
        np.multiply(self.norm, layer.gamma.data, out=self.t2)
        np.add(self.t2, layer.beta.data, out=self.out)

    def backward(self) -> None:
        layer = self.layer
        grad = self.grad
        if self.gb is not None:
            if self.gb_acc:
                np.add.reduce(grad, axis=0, out=self.gb_tmp)
                self.gb += self.gb_tmp
            else:
                np.add.reduce(grad, axis=0, out=self.gb)
            layer.beta.grad = self.gb
        if self.gg is not None:
            np.multiply(grad, self.norm, out=self.scratch)
            if self.gg_acc:
                np.add.reduce(self.scratch, axis=0, out=self.gg_tmp)
                self.gg += self.gg_tmp
            else:
                np.add.reduce(self.scratch, axis=0, out=self.gg)
            layer.gamma.grad = self.gg
        if self.gin is not None:
            np.multiply(grad, layer.gamma.data, out=self.gmul)
            if self.gin_acc:
                np.multiply(self.gmul, self._scale, out=self.gmul)
                self.gin += self.gmul
            else:
                np.multiply(self.gmul, self._scale, out=self.gin)


class _AddStep:
    """Tensor ``a + b`` (loss fan-in, residual sums)."""

    __slots__ = ("index", "requires_grad", "a", "b", "out", "grad",
                 "a_shape", "b_shape", "ta", "ta_acc", "tb", "tb_acc",
                 "_srcs")

    def __init__(self, a: Tensor, b: Tensor, out: Tensor):
        self.a: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        self.a_shape = a.shape
        self.b_shape = b.shape
        self.out = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.ta = self.tb = None
        self.ta_acc = self.tb_acc = False

    def forward(self) -> None:
        np.add(self.a, self.b, out=self.out)

    def backward(self) -> None:
        grad = self.grad
        if self.ta is not None:
            ga = grad if grad.shape == self.a_shape else \
                _unbroadcast(grad, self.a_shape)
            if self.ta_acc:
                self.ta += ga
            else:
                np.copyto(self.ta, ga)
        if self.tb is not None:
            gb = grad if grad.shape == self.b_shape else \
                _unbroadcast(grad, self.b_shape)
            if self.tb_acc:
                self.tb += gb
            else:
                np.copyto(self.tb, gb)


class _MulStep:
    """Tensor ``a * b`` (e.g. the weighted consistency-loss term)."""

    __slots__ = ("index", "requires_grad", "a", "b", "out", "grad",
                 "a_shape", "b_shape", "tmp_a", "tmp_b",
                 "ta", "ta_acc", "tb", "tb_acc",
                 "_srcs")

    def __init__(self, a: Tensor, b: Tensor, out: Tensor):
        self.a: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        self.a_shape = a.shape
        self.b_shape = b.shape
        self.out = np.empty_like(out.data)
        # Product staging buffers (``grad * other`` has the output's shape
        # and dtype; the operands' dtypes are already folded into it).
        self.tmp_a = np.empty_like(out.data)
        self.tmp_b = np.empty_like(out.data)
        self.grad: Optional[np.ndarray] = None
        self.ta = self.tb = None
        self.ta_acc = self.tb_acc = False

    def forward(self) -> None:
        np.multiply(self.a, self.b, out=self.out)

    def backward(self) -> None:
        grad = self.grad
        if self.ta is not None:
            np.multiply(grad, self.b, out=self.tmp_a)
            ga = (self.tmp_a if self.tmp_a.shape == self.a_shape
                  else _unbroadcast(self.tmp_a, self.a_shape))
            if self.ta_acc:
                self.ta += ga
            else:
                np.copyto(self.ta, ga)
        if self.tb is not None:
            np.multiply(grad, self.a, out=self.tmp_b)
            gb = (self.tmp_b if self.tmp_b.shape == self.b_shape
                  else _unbroadcast(self.tmp_b, self.b_shape))
            if self.tb_acc:
                self.tb += gb
            else:
                np.copyto(self.tb, gb)


# --------------------------------------------------------------------------- #
# Compiled loss kernels
# --------------------------------------------------------------------------- #


class _HardCELoss:
    """Fused softmax + hard cross entropy (matches ``softmax_cross_entropy``),
    with optional per-sample weights (FixMatch's confidence mask)."""

    __slots__ = ("index", "requires_grad", "z", "targets", "weights",
                 "weighted", "out", "grad", "need_value", "rows", "maxbuf",
                 "shifted", "exp", "sumexp", "logbuf", "d", "denom",
                 "num_classes", "dtype", "_t", "_w", "tz", "tz_acc",
                 "_src", "_src_rg")

    def __init__(self, logits: Tensor, weighted: bool):
        z = logits.data
        n, c = z.shape
        dtype = z.dtype
        self.z: Optional[np.ndarray] = None
        self.targets: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        self.weighted = weighted
        self.out = np.empty((), dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.need_value = True
        self.rows = np.arange(n)
        self.maxbuf = np.empty((n, 1), dtype=dtype)
        self.shifted = np.empty((n, c), dtype=dtype)
        self.exp = np.empty((n, c), dtype=dtype)
        self.sumexp = np.empty((n, 1), dtype=dtype)
        self.logbuf = np.empty(n, dtype=dtype)
        self.d = np.empty((n, c), dtype=dtype)
        self.denom = float(n)
        self.num_classes = c
        self.dtype = dtype
        self._t = self._w = None
        self.tz = None
        self.tz_acc = False

    def forward(self) -> None:
        t = np.asarray(self.targets, dtype=np.int64)
        F.check_label_range(t, self.num_classes)
        self._t = t
        z = self.z
        np.maximum.reduce(z, axis=1, keepdims=True, out=self.maxbuf)
        np.subtract(z, self.maxbuf, out=self.shifted)
        np.exp(self.shifted, out=self.exp)
        np.add.reduce(self.exp, axis=1, keepdims=True, out=self.sumexp)
        if self.weighted:
            w = np.asarray(self.weights, dtype=self.dtype)
            self._w = w
            self.denom = float(w.sum()) or 1.0
        if not self.need_value:
            # The backward needs only exp/sumexp (and the weighted denom);
            # the scalar is elided when the caller does not consume it.
            return
        np.log(self.sumexp[:, 0], out=self.logbuf)
        picked = self.shifted[self.rows, self._t]
        picked -= self.logbuf
        if self.weighted:
            self.out[()] = -float(self._w @ picked) / self.denom
        else:
            self.out[()] = -float(picked.sum()) / self.denom

    def backward(self) -> None:
        if self.tz is None:
            return
        g = float(self.grad)
        d = self.d if self.tz_acc else self.tz
        np.divide(self.exp, self.sumexp, out=d)
        d[self.rows, self._t] -= 1.0
        if self.weighted:
            d *= self._w[:, None]
        d *= g / self.denom
        if self.tz_acc:
            self.tz += d


class _SoftCELoss:
    """Fused soft-target cross entropy (matches ``soft_cross_entropy``)."""

    __slots__ = ("index", "requires_grad", "z", "targets", "weights",
                 "weighted", "out", "grad", "need_value", "maxbuf", "shifted",
                 "exp", "sumexp", "logbuf", "prod", "tsum", "tbuf", "d",
                 "denom", "dtype", "_t", "tz", "tz_acc",
                 "_src", "_src_rg")

    def __init__(self, logits: Tensor, weighted: bool):
        z = logits.data
        n, c = z.shape
        dtype = z.dtype
        self.z: Optional[np.ndarray] = None
        self.targets: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        self.weighted = weighted
        self.out = np.empty((), dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.need_value = True
        self.maxbuf = np.empty((n, 1), dtype=dtype)
        self.shifted = np.empty((n, c), dtype=dtype)
        self.exp = np.empty((n, c), dtype=dtype)
        self.sumexp = np.empty((n, 1), dtype=dtype)
        self.logbuf = np.empty((n, 1), dtype=dtype)
        self.prod = np.empty((n, c), dtype=dtype)
        self.tsum = np.empty((n, 1), dtype=dtype)
        self.tbuf = np.empty((n, c), dtype=dtype) if weighted else None
        self.d = np.empty((n, c), dtype=dtype)
        self.denom = float(n)
        self.dtype = dtype
        self._t = None
        self.tz = None
        self.tz_acc = False

    def forward(self) -> None:
        t = np.asarray(self.targets, dtype=self.dtype)
        z = self.z
        np.maximum.reduce(z, axis=1, keepdims=True, out=self.maxbuf)
        np.subtract(z, self.maxbuf, out=self.shifted)
        np.exp(self.shifted, out=self.exp)
        np.add.reduce(self.exp, axis=1, keepdims=True, out=self.sumexp)
        if self.weighted:
            w = np.asarray(self.weights, dtype=self.dtype)
            np.multiply(t, w[:, None], out=self.tbuf)
            t = self.tbuf
            self.denom = float(w.sum()) or 1.0
        self._t = t
        if not self.need_value:
            return
        np.log(self.sumexp, out=self.logbuf)
        # log_probs = shifted - log(sumexp); loss = -sum(t * log_probs)/denom
        np.subtract(self.shifted, self.logbuf, out=self.prod)
        np.multiply(self.prod, t, out=self.prod)
        self.out[()] = -float(self.prod.sum()) / self.denom

    def backward(self) -> None:
        if self.tz is None:
            return
        g = float(self.grad)
        d = self.d if self.tz_acc else self.tz
        np.divide(self.exp, self.sumexp, out=d)
        np.add.reduce(self._t, axis=1, keepdims=True, out=self.tsum)
        d *= self.tsum
        d -= self._t
        d *= g / self.denom
        if self.tz_acc:
            self.tz += d


class _SqErrLoss:
    """Fused squared-error loss (matches ``l2_loss`` / ``mse_loss``; the
    recorded denominator distinguishes the two)."""

    __slots__ = ("index", "requires_grad", "z", "targets", "out", "grad",
                 "need_value", "diff", "sq", "d", "denom", "tz", "tz_acc",
                 "_src", "_src_rg")

    def __init__(self, predictions: Tensor, denom: float):
        p = predictions.data
        self.z: Optional[np.ndarray] = None
        self.targets: Optional[np.ndarray] = None
        self.out = np.empty((), dtype=p.dtype)
        self.grad: Optional[np.ndarray] = None
        self.need_value = True
        self.diff = np.empty_like(p)
        self.sq = np.empty_like(p)
        self.d = np.empty_like(p)
        self.denom = denom
        self.tz = None
        self.tz_acc = False

    def forward(self) -> None:
        np.subtract(self.z, self.targets, out=self.diff)
        if not self.need_value:
            return
        np.multiply(self.diff, self.diff, out=self.sq)
        self.out[()] = float(self.sq.sum()) / self.denom

    def backward(self) -> None:
        if self.tz is None:
            return
        g = float(self.grad)
        d = self.d if self.tz_acc else self.tz
        np.multiply(self.diff, 2.0 * g / self.denom, out=d)
        if self.tz_acc:
            self.tz += d


_MODULE_KERNELS = {
    Linear: _LinearStep,
    ReLU: _ReLUStep,
    Tanh: _TanhStep,
    Dropout: _DropoutStep,
    BatchNorm1d: _BatchNormStep,
}

_LOSS_NODES = (_HardCELoss, _SoftCELoss, _SqErrLoss)


# --------------------------------------------------------------------------- #
# Structural fingerprint (the per-step signature guard)
# --------------------------------------------------------------------------- #


def _model_fingerprint(module: Module) -> tuple:
    """A cheap structural identity of the model, rebuilt on every step
    (once per epoch per mode inside :meth:`GraphReplay.epoch`).

    Captures everything a compiled plan depends on: the identity and type of
    every submodule in attribute order, parameter shapes/dtypes and
    ``requires_grad`` flags for ``Linear`` layers, mode/probability for
    ``Dropout``, and for ``BatchNorm1d`` the feature count, momentum, eps,
    train/eval mode, parameter identities/dtypes, and the running-stat
    dtypes (a config or dtype change must force a recapture, never a replay
    of stale kernels).  Any mutation — adding a layer, replacing a head,
    freezing a parameter, flipping a layer's mode — changes the fingerprint.
    """
    out = []
    for m in module.modules():
        t = type(m)
        if t is Linear:
            w = m.weight
            b = m.bias
            out.append((id(m), t, id(w), w.data.shape, w.data.dtype,
                        w.requires_grad,
                        None if b is None else (id(b), b.data.shape,
                                                b.data.dtype,
                                                b.requires_grad)))
        elif t is Dropout:
            out.append((id(m), t, m.p, m.training))
        elif t is BatchNorm1d:
            g, b = m.gamma, m.beta
            out.append((id(m), t, m.num_features, m.momentum,
                        m.eps, m.training,
                        (id(g), g.data.dtype, g.requires_grad),
                        (id(b), b.data.dtype, b.requires_grad),
                        m.running_mean.dtype, m.running_var.dtype))
        else:
            out.append((id(m), t))
    return tuple(out)


# --------------------------------------------------------------------------- #
# The DAG compiler
# --------------------------------------------------------------------------- #


class _CompiledPlan:
    """A compiled kernel DAG: forward in trace order, backward reversed.

    A training step that does not return its loss runs ``_lean_forwards``
    and tells the ``_value_losses`` to skip their scalar (see
    :func:`_value_elision`).
    """

    __slots__ = ("_forwards", "_lean_forwards", "_value_losses",
                 "_backwards", "_input_sites", "_clear_grads", "root",
                 "optimizer", "pins")

    def __init__(self, forwards, lean_forwards, value_losses, backwards,
                 input_sites, clear_grads, root, optimizer):
        self._forwards = forwards
        self._lean_forwards = lean_forwards
        self._value_losses = value_losses
        self._backwards = backwards
        self._input_sites = input_sites
        self._clear_grads = clear_grads
        self.root = root
        self.optimizer = optimizer
        self.pins = None

    def _bind(self, inputs: Dict[str, np.ndarray]) -> None:
        for node, attr, key, cast_dtype in self._input_sites:
            arr = inputs[key]
            if cast_dtype is not None and arr.dtype != cast_dtype:
                # The eager path casts through ``Tensor(x)``; match it.
                arr = arr.astype(cast_dtype)
            setattr(node, attr, arr)

    def run(self, inputs: Dict[str, np.ndarray],
            need_value: bool = True) -> Optional[float]:
        self._bind(inputs)
        for loss in self._value_losses:
            loss.need_value = need_value
        for forward in (self._forwards if need_value
                        else self._lean_forwards):
            forward()
        value = float(self.root.out) if need_value else None
        for backward in self._backwards:
            backward()
        # Optimizer parameters this plan computes no gradient for must not
        # advance: eager's zero_grad() leaves them at None, so clear any
        # binding left over from an earlier step with different coverage.
        for param in self._clear_grads:
            param.grad = None
        self.optimizer.step()
        return value

    def run_eval(self, inputs: Dict[str, np.ndarray]) -> float:
        """Forward + loss value only (the compiled inference pass)."""
        self._bind(inputs)
        for forward in self._forwards:
            forward()
        return float(self.root.out)

    def run_forward(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        """Forward only; returns the root output buffer (valid until the
        next call on this plan)."""
        self._bind(inputs)
        for forward in self._forwards:
            forward()
        return self.root.out


def _reuse_relu_buffers(built: List[object], links: List[tuple],
                        root) -> set:
    """Buffer-reuse pass: run a ReLU in place over its ``Linear`` input.

    Applies when the ReLU's input is a ``Linear`` output that feeds nothing
    else and neither node is the plan root: no other kernel reads the
    pre-activation values, and no caller is handed the buffer.  The ReLU
    then writes ``max(x, 0)`` over the ``Linear`` output; in backward it
    masks its own grad buffer in place and that buffer is the ``Linear``'s
    grad (wired in :func:`_compile`).  The ``Linear`` backward reads only
    its input, weight and grad — never its output — so the overwrite is
    invisible to it.  Returns the ids of the ReLU nodes that run in place.
    """
    consumers: Dict[int, int] = {}
    for _, _, src in links:
        consumers[id(src)] = consumers.get(id(src), 0) + 1
    inplace = set()
    for node in built:
        if type(node) is not _ReLUStep or node is root:
            continue
        src = node._src
        if type(src) is _LinearStep and src is not root \
                and consumers[id(src)] == 1:
            node.out = src.out
            inplace.add(id(node))
    return inplace


def _value_elision(built: List[object]) -> Tuple[list, list]:
    """Value-elision pass for training steps whose loss nobody reads.

    Marks which scalar values such a step may skip: the root's value goes
    only to the caller, an add reads its operands only to form its own
    value, and a mul reads them for its value and for the other operand's
    gradient.  Every module kernel and every loss reads its input.  A loss
    whose value is unread still computes the softmax parts its backward
    needs and skips only the scalar; an add/mul whose value is unread skips
    its forward (neither backward reads its own output).  Returns the
    optional-value losses and the forward list without the skipped nodes.
    Runs after backward wiring, which decides whether a mul deposits into
    each operand.
    """
    needed = set()
    for node in reversed(built):  # consumers before their producers
        used = id(node) in needed
        if type(node) is _AddStep:
            if used:
                needed.update(id(src) for src, _ in node._srcs)
        elif type(node) is _MulStep:
            (na, _), (nb, _) = node._srcs
            if used or node.tb is not None:
                needed.add(id(na))
            if used or node.ta is not None:
                needed.add(id(nb))
        else:
            needed.add(id(node._src))
    value_losses = [node for node in built
                    if isinstance(node, _LOSS_NODES) and id(node) not in needed]
    lean_forwards = [node.forward for node in built
                     if id(node) in needed
                     or not isinstance(node, (_AddStep, _MulStep))]
    return value_losses, lean_forwards


def _compile(records: List[tuple], root: Tensor,
             input_keys: Dict[int, str], optimizer: Optional[Optimizer],
             train: bool) -> _CompiledPlan:
    """Build a replay plan from one traced eager step, or raise
    :class:`ReplayUnsupported`."""
    # ---- producer map: which record made each tensor ------------------- #
    prod: Dict[int, Tuple[int, tuple]] = {}
    for idx, rec in enumerate(records):
        kind = rec[0]
        if kind == "module":
            module, inp, out = rec[1], rec[2], rec[3]
            # Identity / eval-mode dropout return their input: claim nothing
            # (the tensor resolves through its true producer).  Container
            # modules are skipped; their leaves claim the outputs.
            if type(module) in _MODULE_KERNELS and out is not inp:
                prod[id(out)] = (idx, rec)
        else:
            prod[id(rec[-1])] = (idx, rec)

    nodes: Dict[int, object] = {}
    built: List[object] = []
    input_sites: List[tuple] = []
    links: List[tuple] = []

    def wire(node, attr: str, src) -> None:
        # Node-to-node links bind after the buffer-reuse pass, which may
        # repoint a ReLU's output at its producer's buffer.
        if isinstance(src, _InputNode):
            input_sites.append((node, attr, src.key, src.cast_dtype))
        else:
            links.append((node, attr, src))

    def key_for(obj, what: str) -> str:
        oid = id(obj)
        key = input_keys.get(oid)
        if key is None:
            if oid in input_keys:
                raise ReplayUnsupported(
                    f"{what} aliases an array bound to multiple step inputs")
            raise ReplayUnsupported(f"{what} is not a step input")
        return key

    def resolve(t):
        if not isinstance(t, Tensor):
            raise ReplayUnsupported("non-tensor operand in the traced graph")
        tid = id(t)
        node = nodes.get(tid)
        if node is not None:
            return node
        key = input_keys.get(tid)
        if key is not None:
            node = _InputNode(key, t.data.dtype)
            nodes[tid] = node
            return node
        if tid in input_keys:  # registered but aliased (None entry)
            raise ReplayUnsupported(
                "the same array is bound to multiple step inputs")
        entry = prod.get(tid)
        if entry is None:
            raise ReplayUnsupported(
                "tensor produced outside the replayable op set "
                "(custom tensor math or a constant created in the step?)")
        idx, rec = entry
        kind = rec[0]
        if kind == "module":
            module, inp, out = rec[1], rec[2], rec[3]
            src = resolve(inp)
            node = _MODULE_KERNELS[type(module)](module, inp, out)
            wire(node, "x", src)
            node._src = src  # noqa: SLF001 - compiler-internal link
            node._src_rg = inp.requires_grad
        elif kind in ("add", "mul"):
            a, b, out = rec[1], rec[2], rec[3]
            na, nb = resolve(a), resolve(b)
            node = (_AddStep if kind == "add" else _MulStep)(a, b, out)
            wire(node, "a", na)
            wire(node, "b", nb)
            node._srcs = ((na, a.requires_grad), (nb, b.requires_grad))
        else:  # loss
            _, loss_kind, logits, targets, extra, out = rec
            src = resolve(logits)
            if logits.ndim != 2:
                raise ReplayUnsupported("losses replay on 2-D logits only")
            tkey = key_for(targets, "loss targets")
            if loss_kind == "sqerr":
                node = _SqErrLoss(logits, float(extra))
                input_sites.append((node, "targets", tkey,
                                    np.asarray(targets).dtype))
            else:
                weighted = extra is not None
                cls = (_HardCELoss if loss_kind == "cross_entropy"
                       else _SoftCELoss)
                node = cls(logits, weighted)
                input_sites.append((node, "targets", tkey, None))
                if weighted:
                    wkey = key_for(extra, "loss sample weights")
                    input_sites.append((node, "weights", wkey, None))
            wire(node, "z", src)
            node._src = src
            node._src_rg = logits.requires_grad
        node.index = idx
        node.requires_grad = bool(rec[-1].requires_grad) and train
        nodes[tid] = node
        built.append(node)
        return node

    root_node = resolve(root)
    if isinstance(root_node, _InputNode) or not built:
        raise ReplayUnsupported("traced graph contains no replayable ops")
    if train and not root_node.requires_grad:
        raise ReplayUnsupported("loss does not require gradients")

    # Every traced leaf-module call must be reachable from the root: a call
    # the plan would skip could have side effects (dropout RNG draws,
    # batch-norm running stats) that eager execution performs.
    for idx, rec in enumerate(records):
        if rec[0] == "module" and type(rec[1]) in _MODULE_KERNELS \
                and rec[3] is not rec[2] and id(rec[3]) not in nodes:
            raise ReplayUnsupported(
                f"traced {type(rec[1]).__name__} call is not reachable "
                "from the loss")

    built.sort(key=lambda n: n.index)
    inplace = _reuse_relu_buffers(built, links, root_node)
    for node, attr, src in links:
        setattr(node, attr, src.out)
    forwards = [node.forward for node in built]

    backwards: List[Callable] = []
    if train:
        # Gradient buffers: one per node that participates in the backward.
        for node in built:
            if not node.requires_grad:
                continue
            node.grad = (np.ones_like(node.out) if node is root_node
                         else np.empty_like(node.out))
            if type(node) is _ReLUStep:
                node.mask = np.empty(node.out.shape, dtype=bool)
                if id(node) in inplace:
                    # The ReLU is the Linear's only consumer, hence the only
                    # writer of its gradient: the two share one buffer.
                    node._src.grad = node.grad
        # Deposit wiring in backward-execution order: the first contribution
        # to each target writes it, later ones accumulate — exactly the
        # eager engine's copy-then-add ordering.
        written = set()
        param_targets: Dict[int, np.ndarray] = {}

        def assign(node, prefix: str, src, src_rg: bool,
                   needs_tmp: bool = False) -> None:
            # ``needs_tmp`` marks kernels whose accumulate path stages into
            # a private ``*_tmp`` buffer; the others (losses, add/mul,
            # batch-norm input grads) reuse their own scratch buffers.
            if isinstance(src, _InputNode) or not src_rg:
                return  # slot stays None
            target = src.grad
            acc = id(target) in written
            written.add(id(target))
            setattr(node, prefix, target)
            setattr(node, prefix + "_acc", acc)
            if acc and needs_tmp:
                setattr(node, prefix + "_tmp", np.empty_like(target))

        def assign_param(node, prefix: str, param) -> None:
            if param is None or not param.requires_grad:
                return
            pid = id(param)
            acc = pid in param_targets
            if not acc:
                target = (optimizer.grad_view_for(param)
                          if optimizer is not None else None)
                if target is None:
                    target = np.empty_like(param.data)
                param_targets[pid] = target
            setattr(node, prefix, param_targets[pid])
            setattr(node, prefix + "_acc", acc)
            if acc:
                setattr(node, prefix + "_tmp", np.empty_like(param.data))

        for node in reversed(built):
            if not node.requires_grad:
                continue
            if isinstance(node, _LinearStep):
                assign_param(node, "gw", node.layer.weight)
                assign_param(node, "gb", node.layer.bias)
                assign(node, "gin", node._src, node._src_rg, needs_tmp=True)
            elif isinstance(node, _BatchNormStep):
                assign_param(node, "gb", node.layer.beta)
                assign_param(node, "gg", node.layer.gamma)
                assign(node, "gin", node._src, node._src_rg)
            elif id(node) in inplace:
                # Masks its own grad buffer in place; the Linear reads it.
                node.gin = node.grad
            elif isinstance(node, (_ReLUStep, _TanhStep, _DropoutStep)):
                assign(node, "gin", node._src, node._src_rg, needs_tmp=True)
            elif isinstance(node, (_AddStep, _MulStep)):
                (na, a_rg), (nb, b_rg) = node._srcs
                assign(node, "ta", na, a_rg)
                assign(node, "tb", nb, b_rg)
            else:  # loss node
                assign(node, "tz", node._src, node._src_rg)
            backwards.append(node.backward)

    clear_grads: tuple = ()
    if train and optimizer is not None:
        clear_grads = tuple(p for p in optimizer.parameters
                            if id(p) not in param_targets)

    value_losses, lean_forwards = (_value_elision(built) if train
                                   else ([], forwards))
    return _CompiledPlan(forwards, lean_forwards, value_losses, backwards,
                         input_sites, clear_grads, root_node, optimizer)


# --------------------------------------------------------------------------- #
# Public executor
# --------------------------------------------------------------------------- #


class _UnsupportedPlan:
    """Negative cache entry: this signature cannot be compiled.

    Pins the traced modules (and the step function) so their ids — which
    participate in the signature — cannot be recycled for different objects
    while the entry lives.  Carries the reason so every later eager step
    under this signature is tallied against it.
    """

    __slots__ = ("pins", "reason")

    def __init__(self, pins, reason: str):
        self.pins = pins
        self.reason = reason


def _wrap_inputs(inputs: Dict[str, np.ndarray], tensor_keys=()):
    """Wrap float inputs as Tensors (the eager ``Tensor(x)`` cast) and pass
    integer/bool arrays through raw; return the bound dict plus the id→key
    map the compiler uses to resolve graph inputs.

    Both the Tensor and its ``.data`` array are keyed, so a step function
    may hand ``batch["w"].data`` to a loss as targets/sample-weights and
    still resolve.  Keys in ``tensor_keys`` are wrapped regardless of dtype
    — the chain APIs (``step``/``eval_loss``/``forward``) use this for the
    model input so an integer feature array gets the exact ``Tensor(x)``
    cast the eager step applies.
    """
    bound: Dict[str, object] = {}
    ids: Dict[int, Optional[str]] = {}

    def register(obj, key):
        # The same array bound under two keys is ambiguous: the compiler
        # could not tell which key a traced use belongs to, and a later
        # replay may rebind the keys to different arrays.  A None entry
        # marks the id as aliased; resolution then rejects the capture
        # (eager fallback, which handles aliasing naturally).
        ids[id(obj)] = None if id(obj) in ids else key

    for key, arr in inputs.items():
        if arr.dtype.kind == "f" or key in tensor_keys:
            t = Tensor(arr)
            bound[key] = t
            register(t, key)
            register(t.data, key)
        else:
            bound[key] = arr
            register(arr, key)
    return bound, ids


#: plans cached per executor; beyond this many distinct signatures the
#: executor stops compiling and runs eager (a shape-churning workload would
#: otherwise accumulate buffers without ever amortizing a capture)
_MAX_PLANS = 16

#: eager-fallback reason: replay is switched off for this call
_R_DISABLED = "replay_disabled"


class GraphReplay:
    """Capture/replay stepper for one ``(model, loss, optimizer)`` loop.

    ``step(x, y)`` performs one full training step — forward, loss, backward,
    optimizer update — and returns the loss as a float; ``step_fn(fn, inputs)``
    does the same for an arbitrary traced step function (e.g. FixMatch's
    two-view consistency step).  The first step for each signature runs
    eagerly (tracing the graph); subsequent steps replay compiled NumPy
    kernels.  Every fallback rule in the module docstring is re-checked per
    step (the structural one once per epoch inside :meth:`epoch`), so the
    executor is always safe to leave on.

    The learning-rate schedule lives outside: callers keep invoking
    ``scheduler.step()`` before each ``step`` exactly as in the eager loop
    (the replayed update reads ``optimizer.lr`` live).

    ``stats`` may be a shared :class:`ReplayStats` (e.g.
    ``TrainConfig.replay_stats``); ambient sinks registered through
    :func:`collect_replay_stats` at construction time are updated too.
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loss: str = "cross_entropy",
                 enabled: Optional[bool] = None,
                 stats: Optional[ReplayStats] = None):
        if loss not in _LOSS_FNS:
            raise ValueError(f"unknown replay loss {loss!r}; "
                             f"known: {sorted(_LOSS_FNS)}")
        self.model = model
        self.optimizer = optimizer
        self.loss_kind = loss
        self._loss_fn = _LOSS_FNS[loss]
        self._enabled = enabled
        self._plans: Dict[tuple, object] = {}
        self._last_sig: Optional[tuple] = None
        self._last_plan: Optional[_CompiledPlan] = None
        #: while an :meth:`epoch` scope is open: the structural fingerprint
        #: per ``model.training``, and what each call signature resolved to
        #: per mode (a plan or an eager-fallback reason); None outside
        self._epoch_fingerprints: Optional[Dict[bool, tuple]] = None
        self._epoch_outcomes: Optional[Dict[tuple, object]] = None
        #: the model's modules, walked once on entering an :meth:`epoch`
        #: scope (for :meth:`set_training`); None outside
        self._epoch_modules: Optional[Tuple[Module, ...]] = None
        own = stats if stats is not None else ReplayStats()
        # Dedupe by identity: the same counter may arrive both explicitly
        # (TrainConfig.replay_stats) and ambiently (collect_replay_stats);
        # it must tick once per event, not once per registration.
        sinks = [own]
        for sink in _AMBIENT_SINKS.get():
            if all(sink is not existing for existing in sinks):
                sinks.append(sink)
        self._sinks = tuple(sinks)
        self.stats = own

        loss_fn = self._loss_fn

        def _chain(model, batch):
            y = batch["y"]
            return loss_fn(model(batch["x"]),
                           y.data if isinstance(y, Tensor) else y)

        def _fwd(model, batch):
            return model(batch["x"])

        self._chain_fn = _chain
        self._fwd_fn = _fwd

    # -- stats ----------------------------------------------------------- #
    def _count_capture(self) -> None:
        for sink in self._sinks:
            sink.add_capture()

    def _count_replay(self) -> None:
        for sink in self._sinks:
            sink.add_replay()

    def _count_eager(self, reason: str) -> None:
        for sink in self._sinks:
            sink.add_eager(reason)

    # -- mode ------------------------------------------------------------ #
    def _replay_on(self, need_grad: bool = True) -> bool:
        enabled = (self._enabled if self._enabled is not None
                   else graph_replay_enabled())
        if not (enabled and fused_ops_enabled()):
            return False
        return is_grad_enabled() if need_grad else True

    # -- eager reference paths ------------------------------------------- #
    def _eager_step(self, x, y, reason: str) -> float:
        self._count_eager(reason)
        logits = self.model(Tensor(x))
        loss = self._loss_fn(logits, y)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def _eager_fn(self, fn, inputs: Dict[str, np.ndarray],
                  reason: str, tensor_keys=()) -> float:
        self._count_eager(reason)
        bound, _ = _wrap_inputs(inputs, tensor_keys)
        root = fn(self.model, bound)
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        return root.item()

    # -- capture --------------------------------------------------------- #
    def _capture_train(self, fn, inputs: Dict[str, np.ndarray],
                       tensor_keys=()):
        """Run one eager step with the op tracer on and compile it.

        The step always completes eagerly — including when compilation
        fails — so the capture step is indistinguishable from a plain eager
        step (same updates, same RNG draws, and ``zero_grad`` clears any
        stale gradient state before buffer-bound gradients take over).
        Returns ``(plan_or_None, pins, loss, reason_or_None)``.
        """
        bound, ids = _wrap_inputs(inputs, tensor_keys)
        records: List[tuple] = []
        with trace_module_calls(records):
            root = fn(self.model, bound)
        if not isinstance(root, Tensor):
            raise TypeError("step function must return a loss Tensor")
        reason = None
        plan = None
        try:
            if root.shape != ():
                raise ReplayUnsupported("step function must return a "
                                        "scalar loss")
            plan = _compile(records, root, ids, self.optimizer, train=True)
        except ReplayUnsupported as exc:
            reason = f"unsupported: {exc}"
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        pins = ([rec[1] for rec in records if rec[0] == "module"], fn)
        if plan is not None:
            plan.pins = pins
        return plan, pins, root.item(), reason

    def _capture_no_grad(self, fn, inputs: Dict[str, np.ndarray],
                         tensor_keys=()):
        """Eager inference pass (tape-free) with the tracer on.

        Returns ``(plan_or_None, pins, root_tensor, reason_or_None)``.
        """
        with inference_mode():
            bound, ids = _wrap_inputs(inputs, tensor_keys)
            records: List[tuple] = []
            with trace_module_calls(records):
                root = fn(self.model, bound)
            reason = None
            plan = None
            try:
                plan = _compile(records, root, ids, None, train=False)
            except ReplayUnsupported as exc:
                reason = f"unsupported: {exc}"
            pins = ([rec[1] for rec in records if rec[0] == "module"], fn)
            if plan is not None:
                plan.pins = pins
            return plan, pins, root, reason

    # -- plan-cache dance ------------------------------------------------ #
    def _fingerprint_sig(self) -> tuple:
        cache = self._epoch_fingerprints
        if cache is not None:
            fingerprint = cache.get(self.model.training)
            if fingerprint is not None:
                return fingerprint
        fingerprint = (np.dtype(get_default_dtype()),
                       tuple(id(p) for p in self.optimizer.parameters),
                       _model_fingerprint(self.model))
        if cache is not None:
            cache[self.model.training] = fingerprint
        return fingerprint

    @contextmanager
    def epoch(self):
        """Scope one epoch of calls on this stepper.

        Inside the scope the structural guard runs once per call signature
        per model mode (``model.training``) instead of on every call: the
        fingerprint is computed once per mode, and each signature's first
        call remembers what it resolved to — a compiled plan or an eager
        fallback — for the rest of the epoch.  The caller promises what
        :meth:`run_epoch` relies on: the model structure, the optimizer's
        parameter list and the engine dtype do not change inside the scope
        except through ``model.train()`` / ``model.eval()``.  A loop that
        flips the mode every step (FixMatch's pseudo-label forward) gets
        one plan per mode.  The next scope fingerprints afresh, so a change
        between epochs is caught.  The same promise lets
        :meth:`set_training` flip the mode over the module list walked on
        entry, instead of walking the model on every call.
        """
        outer = (self._epoch_fingerprints, self._epoch_outcomes,
                 self._epoch_modules)
        self._epoch_fingerprints, self._epoch_outcomes = {}, {}
        self._epoch_modules = tuple(self.model.modules())
        try:
            yield self
        finally:
            (self._epoch_fingerprints, self._epoch_outcomes,
             self._epoch_modules) = outer

    def set_training(self, mode: bool) -> None:
        """``model.train(mode)``, without the module walk inside an
        :meth:`epoch` scope (whose promise rules out structural changes).

        Not cached across scopes: a version counter bumped on attribute
        assignment would miss in-place container edits (``layers[i] = ...``).
        """
        modules = self._epoch_modules
        if modules is None:
            self.model.train(mode)
            return
        for module in modules:
            module.training = mode

    def _resolve(self, sig: tuple):
        """Look up a cached plan for ``sig``: returns the plan, an
        ``_UnsupportedPlan``, or None (uncached)."""
        if sig == self._last_sig:
            return self._last_plan
        plan = self._plans.get(sig)
        if plan is not None and not isinstance(plan, _UnsupportedPlan):
            self._last_sig, self._last_plan = sig, plan
        return plan

    def _resolve_or_capture(self, key: tuple, fn,
                            inputs: Dict[str, np.ndarray], train: bool,
                            tensor_keys=()):
        """Resolve a call to a compiled plan, capturing on a cache miss.

        ``key`` is the call's shape signature; the structural fingerprint
        completes it.  The one plan-cache protocol shared by every entry
        point.  Returns ``(plan, reason, result)``:

        * ``(plan, None, result)`` — fresh capture: the step already ran
          eagerly and ``result`` is its outcome (the loss float for train
          captures, the root Tensor for no-grad captures);
        * ``(plan, None, None)`` — cache hit: the caller replays the plan;
        * ``(None, reason, result)`` — capture failed: the step still ran
          eagerly (``result`` as above) and the signature is now
          negative-cached under ``reason``;
        * ``(None, reason, None)`` — the caller must run its eager path
          (plan cache full, or the signature is negative-cached).

        Inside an :meth:`epoch` scope the outcome is remembered per key and
        mode, and later calls skip the fingerprint and the lookup.
        """
        outcomes = self._epoch_outcomes
        if outcomes is not None:
            epoch_key = (key, self.model.training)
            known = outcomes.get(epoch_key)
            if known is not None:
                if isinstance(known, str):
                    return None, known, None
                return known, None, None
        plan, reason, result = self._lookup_or_capture(
            key + self._fingerprint_sig(), fn, inputs, train, tensor_keys)
        if outcomes is not None:
            outcomes[epoch_key] = plan if plan is not None else reason
        return plan, reason, result

    def _lookup_or_capture(self, sig: tuple, fn,
                           inputs: Dict[str, np.ndarray], train: bool,
                           tensor_keys=()):
        """:meth:`_resolve_or_capture` for a full signature, unscoped."""
        plan = self._resolve(sig)
        if plan is not None:
            if isinstance(plan, _UnsupportedPlan):
                return None, plan.reason, None
            return plan, None, None
        if len(self._plans) >= _MAX_PLANS:
            return None, "plan_cache_full", None
        capture = self._capture_train if train else self._capture_no_grad
        plan, pins, result, reason = capture(fn, inputs, tensor_keys)
        if plan is None:
            self._plans[sig] = _UnsupportedPlan(pins, reason)
            self._count_eager(reason)
            return None, reason, result
        self._plans[sig] = plan
        self._last_sig, self._last_plan = sig, plan
        self._count_capture()
        return plan, None, result

    # -- the step -------------------------------------------------------- #
    def step(self, x: np.ndarray, y: np.ndarray,
             compute_loss: bool = True) -> Optional[float]:
        """One training step (forward, loss, backward, optimizer update).

        With ``compute_loss=False`` a replayed step elides materializing the
        loss scalar (the gradient does not depend on it) and returns None —
        used by loops that discard the training loss, like the ZSL-KG
        pretrain.  Eager/capture steps still compute and return it.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if not self._replay_on():
            return self._eager_step(x, y, _R_DISABLED)
        inputs = {"x": x, "y": y}
        plan, reason, result = self._resolve_or_capture(
            ("train", x.shape, x.dtype, y.shape, y.dtype), self._chain_fn,
            inputs, train=True, tensor_keys=("x",))
        if result is not None:
            return result
        if plan is None:
            return self._eager_step(x, y, reason)
        self._count_replay()
        return plan.run(inputs, compute_loss)

    # -- arbitrary step functions ---------------------------------------- #
    def step_fn(self, fn, inputs: Dict[str, np.ndarray],
                compute_loss: bool = True) -> Optional[float]:
        """One training step driven by ``fn(model, batch) -> scalar loss``.

        ``inputs`` maps names to arrays; float arrays are handed to ``fn``
        wrapped as Tensors (exactly the ``Tensor(x)`` cast of an eager
        loop), integer/bool arrays raw.  ``fn`` must be a pure function of
        the model and those inputs — every loss target / sample-weight must
        come from ``inputs`` (pass ``batch["w"].data`` for float targets),
        and any constant folded into the graph (a Python scalar, an array
        created inside ``fn``) makes the step uncompilable and falls back
        to eager.  Keep ``fn`` a single long-lived function: the plan cache
        is keyed on its identity.  ``compute_loss=False`` works as in
        :meth:`step`.
        """
        inputs = {k: np.asarray(v) for k, v in inputs.items()}
        if not self._replay_on():
            return self._eager_fn(fn, inputs, _R_DISABLED)
        # Keys are unique, so the sort never compares the shape/dtype parts.
        key = ("fn", id(fn),
               tuple(sorted([(k, v.shape, v.dtype)
                             for k, v in inputs.items()])))
        plan, reason, result = self._resolve_or_capture(key, fn, inputs,
                                                        train=True)
        if result is not None:
            return result
        if plan is None:
            return self._eager_fn(fn, inputs, reason)
        self._count_replay()
        return plan.run(inputs, compute_loss)

    # -- the fused epoch -------------------------------------------------- #
    def run_epoch(self, batches: Iterable, scheduler=None, augment=None,
                  rng=None, compute_loss: bool = True) -> List[Optional[float]]:
        """Run a whole epoch of ``(x, y)`` batches through the executor.

        Each batch is one :meth:`step` inside an :meth:`epoch` scope, so the
        structural guard runs once per (shape, dtype) signature per epoch —
        the model cannot be mutated from inside this loop.  ``augment`` and
        ``scheduler`` run inside the loop in the same order as the eager
        epoch (augment → scheduler.step() → training step).
        """
        losses: List[Optional[float]] = []
        with self.epoch():
            for batch_x, batch_y in batches:
                if augment is not None:
                    batch_x = augment(batch_x, rng)
                if scheduler is not None:
                    scheduler.step()
                losses.append(self.step(batch_x, batch_y, compute_loss))
        return losses

    # -- compiled inference ----------------------------------------------- #
    def _eager_eval(self, x, y, reason: str) -> float:
        self._count_eager(reason)
        with inference_mode():
            return self._loss_fn(self.model(Tensor(x)), y).item()

    def eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss of the model on ``(x, y)`` via a compiled inference pass.

        The tape-free equivalent of ``loss_fn(model(Tensor(x)), y).item()``
        under :func:`~repro.nn.tensor.inference_mode`, replayed through
        forward-only kernels.  Same signature guards and eager fallback as
        :meth:`step`; separate plans, so train/eval batch shapes coexist.
        """
        x = np.asarray(x)
        y = np.asarray(y)
        if not self._replay_on(need_grad=False):
            return self._eager_eval(x, y, _R_DISABLED)
        inputs = {"x": x, "y": y}
        plan, reason, result = self._resolve_or_capture(
            ("eval", x.shape, x.dtype, y.shape, y.dtype), self._chain_fn,
            inputs, train=False, tensor_keys=("x",))
        if result is not None:
            return result.item()
        if plan is None:
            return self._eager_eval(x, y, reason)
        self._count_replay()
        return plan.run_eval(inputs)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw model outputs on ``x`` via a compiled inference forward.

        The tape-free equivalent of ``model(Tensor(x)).data`` under
        :func:`~repro.nn.tensor.inference_mode` (FixMatch's pseudo-label
        view).  Returns the plan's output buffer: consume it before the
        next call on this stepper.
        """
        x = np.asarray(x)
        if not self._replay_on(need_grad=False):
            self._count_eager(_R_DISABLED)
            with inference_mode():
                return self.model(Tensor(x)).data
        inputs = {"x": x}
        plan, reason, result = self._resolve_or_capture(
            ("fwd", x.shape, x.dtype), self._fwd_fn, inputs, train=False,
            tensor_keys=("x",))
        if result is not None:
            return result.data
        if plan is None:
            self._count_eager(reason)
            with inference_mode():
                return self.model(Tensor(x)).data
        self._count_replay()
        return plan.run_forward(inputs)


def compile_step(model: Module, optimizer: Optimizer,
                 loss: str = "cross_entropy",
                 enabled: Optional[bool] = None) -> GraphReplay:
    """Build a :class:`GraphReplay` stepper for a static training loop."""
    return GraphReplay(model, optimizer, loss=loss, enabled=enabled)
