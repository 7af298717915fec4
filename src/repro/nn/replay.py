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
signature replays the op table's kernels (:mod:`repro.nn.ops`) on buffers
the table's rules preallocated: no tensors, no closures, no tape, no
topological sort.  The eager tape runs the same kernels on fresh
buffers, so replayed training is bit-identical to eager training (asserted
by ``tests/nn/test_replay.py`` and ``tests/nn/test_replay_dag.py``).  One
buffer-reuse rule shrinks the working set: a ReLU whose input is a
``Linear`` output read by nothing else, with neither node the plan root,
runs in place over that output and shares its grad buffer with the
``Linear`` (:func:`_reuse_relu_buffers`).

Fallback rules (checked on *every* step, before replaying; inside
``run_epoch`` or an ``epoch()`` scope the model-structure rule is checked
once per epoch):

* replay switched off by the ambient ``use_graph_replay(False)`` scope, or
  gradients disabled → eager step;
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

Supported ops are the entries of the op table: the leaf layers ``Linear``,
``ReLU``, ``Tanh``, ``Dropout`` and ``BatchNorm1d``
(``Identity`` and eval-mode ``Dropout`` pass their input through), tensor
``+`` and ``*`` (e.g. summed or weighted-sum losses), and the fused losses
``cross_entropy`` (optionally per-sample weighted), ``soft_cross_entropy``
and the squared-error losses (``l2_loss`` / ``mse_loss``).  Optimizer
updates reuse ``optimizer.step()`` itself — gradients are written into
preallocated buffers (the optimizer's flat gradient views when available)
and bound to ``param.grad``, so SGD momentum and Adam state evolve exactly
as in eager mode.

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
from . import ops
from .modules import Module, op_of, trace_module_calls
from .ops import Frame, Op, ReplayUnsupported
from .optim import Optimizer
from .tensor import (Tensor, get_default_dtype, graph_replay_enabled,
                     is_grad_enabled, no_grad)

__all__ = ["GraphReplay", "ReplayStats", "ReplayUnsupported",
           "collect_replay_stats"]


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
# Plan nodes
# --------------------------------------------------------------------------- #
# A node is a frame of one table op (:mod:`repro.nn.ops`) whose buffers the
# op's ``alloc`` rule preallocated.  It reads layer parameters through the
# live tensors (``p[i].data``), so in-place parameter updates and
# ``load_state_dict`` swaps are picked up without recompiling.  Its
# ``deposits`` are wired by the compiler, one ``(kernel, target, tmp,
# param)`` per gradient it sends back, in the op's deposit order.  The target
# is a producer node's grad buffer or an optimizer flat-gradient view.  The
# first contribution in backward-execution order writes the target; later
# ones compute into a private ``tmp`` and add it, reproducing the eager
# engine's write-then-add gradient accumulation bit for bit.


class _InputNode:
    """A step input, rebound on every replay (cast to the captured dtype)."""

    __slots__ = ("key", "cast_dtype")

    def __init__(self, key: str, cast_dtype):
        self.key = key
        self.cast_dtype = cast_dtype


class _Node(Frame):
    """One op application in a compiled plan."""

    def __init__(self, op: Op, index: int, train: bool):
        self.op = op
        self.index = index
        #: runs a backward (its output requires grad in a training plan)
        self.train = train
        #: input name -> (producer node or input, whether it requires grad)
        self.srcs: Dict[str, tuple] = {}
        self.deposits: tuple = ()
        #: the inputs this node deposits a gradient into
        self.fed: list = []


def _run_backward(node: _Node) -> None:
    grad = node.grad
    for kernel, target, tmp, param in node.deposits:
        if tmp is None:
            kernel(node, grad, target)
        else:
            target += kernel(node, grad, tmp)
        if param is not None:
            param.grad = target


# --------------------------------------------------------------------------- #
# Structural fingerprint (the per-step signature guard)
# --------------------------------------------------------------------------- #


def _model_fingerprint(module: Module) -> tuple:
    """A cheap structural identity of the model, rebuilt on every step
    (once per epoch per mode inside :meth:`GraphReplay.epoch`).

    Captures everything a compiled plan depends on: the identity and type of
    every submodule in attribute order, and for each leaf layer what its
    table op's ``fingerprint`` names (parameter identities, shapes, dtypes
    and ``requires_grad`` flags; mode and probability for ``Dropout``;
    feature count, momentum, eps, mode and running-stat dtypes for
    ``BatchNorm1d``).  Any mutation — adding a layer, replacing a head,
    freezing a parameter, flipping a layer's mode — changes the fingerprint.
    """
    out = []
    for m in module.modules():
        op = op_of(m)
        out.append((id(m), type(m)) if op is None
                   else (id(m), type(m), op.fingerprint(m)))
    return tuple(out)


# --------------------------------------------------------------------------- #
# The DAG compiler
# --------------------------------------------------------------------------- #


class _CompiledPlan:
    """A compiled kernel DAG: forward in trace order, backward reversed.

    ``_forwards`` holds ``(kernel, node)`` pairs.  A training step that does
    not return its loss runs ``_lean_forwards`` and tells the
    ``_value_losses`` to skip their scalar (see :func:`_value_elision`).
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
        for forward, node in (self._forwards if need_value
                              else self._lean_forwards):
            forward(node)
        value = float(self.root.out) if need_value else None
        for node in self._backwards:
            _run_backward(node)
        # Optimizer parameters this plan computes no gradient for must not
        # advance: eager's zero_grad() leaves them at None, so clear any
        # binding left over from an earlier step with different coverage.
        for param in self._clear_grads:
            param.grad = None
        self.optimizer.step()
        return value

    def run_forward(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        """Forward only; returns the root output buffer (valid until the
        next call on this plan)."""
        self._bind(inputs)
        for forward, node in self._forwards:
            forward(node)
        return self.root.out


def _reuse_relu_buffers(built: List[_Node], root: _Node) -> set:
    """Buffer-reuse pass: run an ``inplace`` op (ReLU) over its input.

    Applies when the input is the output of a ``reuse_out`` op (``Linear``)
    that feeds nothing else, and neither node is the plan root: no other
    kernel reads the pre-activation values, and no caller is handed the
    buffer.  The ReLU then writes ``max(x, 0)`` over the producer's output;
    in backward it masks its own grad buffer in place, and that buffer is
    the producer's grad (wired in :func:`_compile`).  The producer's VJP
    never reads its output, so the overwrite is invisible to it.  Returns
    the ids of the nodes that run in place.
    """
    consumers: Dict[int, int] = {}
    for node in built:
        for src, _ in node.srcs.values():
            consumers[id(src)] = consumers.get(id(src), 0) + 1
    inplace = set()
    for node in built:
        if not node.op.inplace or node is root:
            continue
        (src, _), = node.srcs.values()
        if isinstance(src, _Node) and src.op.reuse_out and src is not root \
                and consumers[id(src)] == 1:
            node.out = src.out
            inplace.add(id(node))
    return inplace


def _value_elision(built: List[_Node]) -> Tuple[list, list]:
    """Value-elision pass for training steps whose loss nobody reads.

    Marks which scalar values such a step may skip: the root's value goes
    only to the caller, an ``elidable`` op (add, mul) reads its operands to
    form its own value and for the gradients its ``vjp_reads`` name, and
    every other op reads its inputs.  A loss whose value is unread still
    computes the softmax parts its backward needs and skips only the
    scalar; an elidable op whose value is unread skips its forward (no VJP
    reads its own output).  Returns the optional-value losses and the
    forward list without the skipped nodes.  Runs after backward wiring,
    which decides which operands receive a gradient.
    """
    needed = set()
    for node in reversed(built):  # consumers before their producers
        op = node.op
        if not op.elidable or id(node) in needed:
            needed.update(id(src) for src, _ in node.srcs.values())
            continue
        for target in node.fed:
            needed.update(id(node.srcs[name][0])
                          for name in op.vjp_reads.get(target, ()))
    value_losses = [node for node in built
                    if node.op.scalar and id(node) not in needed]
    lean_forwards = [(node.op.forward, node) for node in built
                     if id(node) in needed or not node.op.elidable]
    return value_losses, lean_forwards


def _record_op(rec: tuple):
    """``(op, module, traced inputs, extra)`` of one trace record (see
    :func:`repro.nn.tensor.trace_ops`), or None for a record that produces
    nothing: a container module, or an identity such as eval-mode dropout
    (its output resolves through its true producer)."""
    kind = rec[0]
    if kind == "module":
        module, inp, out = rec[1], rec[2], rec[3]
        op = op_of(module)
        return None if op is None or out is inp else (op, module,
                                                        {"x": inp}, None)
    if kind == "loss":
        return ops.LOSSES[rec[1]], None, {"x": rec[2]}, rec[3:5]
    return ops.TABLE[kind], None, {"a": rec[1], "b": rec[2]}, None


def _compile(records: List[tuple], root: Tensor,
             input_keys: Dict[int, str], optimizer: Optional[Optimizer],
             train: bool) -> _CompiledPlan:
    """Build a replay plan from one traced eager step, or raise
    :class:`ReplayUnsupported`."""
    # ---- producer map: which record made each tensor ------------------- #
    prod: Dict[int, Tuple[int, tuple]] = {}
    for idx, rec in enumerate(records):
        decoded = _record_op(rec)
        if decoded is not None:
            prod[id(rec[-1])] = (idx, decoded)

    nodes: Dict[int, object] = {}
    built: List[_Node] = []
    input_sites: List[tuple] = []
    cast = np.dtype(get_default_dtype())

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
        idx, (op, module, ins, extra) = entry
        node = _Node(op, idx, bool(t.requires_grad) and train)
        node.cast = cast
        if module is not None:
            node.layer = module
            node.p = tuple(getattr(module, name) for name in op.params)
        for name, tensor in ins.items():
            src = resolve(tensor)
            node.srcs[name] = (src, tensor.requires_grad)
            if isinstance(src, _InputNode):
                input_sites.append((node, name, src.key, src.cast_dtype))
        arrays = {name: tensor.data for name, tensor in ins.items()}
        if op.scalar:
            if arrays["x"].ndim != 2:
                raise ReplayUnsupported("losses replay on 2-D logits only")
            # The record's extra is the sample weights, or squared error's
            # denominator.
            targets, aux = extra
            input_sites.append((node, "t", key_for(targets, "loss targets"),
                                np.asarray(targets).dtype))
            if op is ops.SQERR:
                node.denom = float(aux)
            elif aux is not None:
                input_sites.append((node, "w",
                                    key_for(aux, "loss sample weights"), None))
                arrays["w"] = aux
        op.alloc(node, arrays, t.data)
        nodes[tid] = node
        built.append(node)
        return node

    root_node = resolve(root)
    if isinstance(root_node, _InputNode) or not built:
        raise ReplayUnsupported("traced graph contains no replayable ops")
    if train and not root_node.train:
        raise ReplayUnsupported("loss does not require gradients")

    # Every traced leaf-module call must be reachable from the root: a call
    # the plan would skip could have side effects (dropout RNG draws,
    # batch-norm running stats) that eager execution performs.
    for rec in records:
        if rec[0] == "module" and _record_op(rec) is not None \
                and id(rec[3]) not in nodes:
            raise ReplayUnsupported(
                f"traced {type(rec[1]).__name__} call is not reachable "
                "from the loss")

    built.sort(key=lambda n: n.index)
    inplace = _reuse_relu_buffers(built, root_node)
    # Node-to-node links bind after the buffer-reuse pass, which may
    # repoint a ReLU's output at its producer's buffer.
    for node in built:
        for name, (src, _) in node.srcs.items():
            if isinstance(src, _Node):
                setattr(node, name, src.out)
    forwards = [(node.op.forward, node) for node in built]

    backwards: List[_Node] = []
    param_targets: Dict[int, np.ndarray] = {}
    if train:
        # Gradient buffers: one per node that participates in the backward.
        for node in built:
            if not node.train:
                continue
            node.grad = (np.ones_like(node.out) if node is root_node
                         else np.empty_like(node.out))
            if id(node) in inplace:
                # The ReLU is its producer's only consumer, hence the only
                # writer of its gradient: the two share one buffer.
                node.srcs["x"][0].grad = node.grad
        # Deposit wiring in backward-execution order: the first contribution
        # to each target writes it, later ones accumulate — exactly the
        # eager engine's copy-then-add ordering.
        written = set()
        for node in reversed(built):
            if not node.train:
                continue
            deposits = []
            for target, kernel in node.op.grads:
                if type(target) is int:
                    param = node.p[target]
                    if param is None or not param.requires_grad:
                        continue
                    acc = id(param) in param_targets
                    if not acc:
                        buf = (optimizer.grad_view_for(param)
                               if optimizer is not None else None)
                        param_targets[id(param)] = (
                            buf if buf is not None
                            else np.empty_like(param.data))
                    buf = param_targets[id(param)]
                    deposits.append((kernel, buf, np.empty_like(param.data)
                                     if acc else None, param))
                    continue
                src, src_rg = node.srcs[target]
                if isinstance(src, _InputNode) or not src_rg:
                    continue
                node.fed.append(target)
                if id(node) in inplace:
                    # Masks its own grad buffer in place; the producer reads it.
                    deposits.append((kernel, node.grad, None, None))
                    continue
                buf = src.grad
                acc = id(buf) in written
                written.add(id(buf))
                deposits.append((kernel, buf,
                                 np.empty_like(buf) if acc else None, None))
            node.deposits = tuple(deposits)
            if deposits:
                backwards.append(node)

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

    Replay is on unless the ambient :func:`~repro.nn.use_graph_replay`
    scope switches it off; the flag is read on every step, not fixed at
    construction.  :attr:`stats` is this stepper's own fresh
    :class:`ReplayStats`; every counter registered through
    :func:`collect_replay_stats` when the stepper is built is updated too.
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loss: str = "cross_entropy"):
        if loss not in _LOSS_FNS:
            raise ValueError(f"unknown replay loss {loss!r}; "
                             f"known: {sorted(_LOSS_FNS)}")
        self.model = model
        self.optimizer = optimizer
        self.loss_kind = loss
        self._loss_fn = _LOSS_FNS[loss]
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
        own = ReplayStats()
        # Dedupe by identity: nested collect_replay_stats scopes may register
        # one counter twice; it must tick once per event, not once per
        # registration.
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
        if not graph_replay_enabled():
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
        with no_grad():
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
    def run_epoch(self, batches: Iterable, scheduler, augment=None,
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
                scheduler.step()
                losses.append(self.step(batch_x, batch_y, compute_loss))
        return losses

    # -- compiled inference ----------------------------------------------- #
    def _eager_eval(self, x, y, reason: str) -> float:
        self._count_eager(reason)
        with no_grad():
            return self._loss_fn(self.model(Tensor(x)), y).item()

    def eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss of the model on ``(x, y)`` via a compiled inference pass.

        The tape-free equivalent of ``loss_fn(model(Tensor(x)), y).item()``
        under :func:`~repro.nn.tensor.no_grad`, replayed through
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
        return float(plan.run_forward(inputs))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Raw model outputs on ``x`` via a compiled inference forward.

        The tape-free equivalent of ``model(Tensor(x)).data`` under
        :func:`~repro.nn.tensor.no_grad` (FixMatch's pseudo-label
        view).  Returns the plan's output buffer: consume it before the
        next call on this stepper.
        """
        x = np.asarray(x)
        if not self._replay_on(need_grad=False):
            self._count_eager(_R_DISABLED)
            with no_grad():
                return self.model(Tensor(x)).data
        inputs = {"x": x}
        plan, reason, result = self._resolve_or_capture(
            ("fwd", x.shape, x.dtype), self._fwd_fn, inputs, train=False,
            tensor_keys=("x",))
        if result is not None:
            return result.data
        if plan is None:
            self._count_eager(reason)
            with no_grad():
                return self.model(Tensor(x)).data
        self._count_replay()
        return plan.run_forward(inputs)

