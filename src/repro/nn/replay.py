"""Whole-graph capture/replay executor for static training loops.

The eager engine rebuilds the autograd tape on every training step: each op
allocates a :class:`~repro.nn.Tensor`, a backward closure, and fresh gradient
arrays, and ``backward`` re-walks the graph.  For the training loops in this
reproduction the graph shape never changes between steps — same model, same
loss, same batch shape — so all of that per-step Python work is redundant.

:class:`GraphReplay` removes it.  The first time a step signature is seen it
runs the ordinary eager step while *tracing* the op DAG: every
:func:`~repro.nn.tensor.apply` records ``(op, frame, inputs, out)``, one
record per op application with the frame its forward kernel ran on.  The
compiler walks the records backward from the loss root, resolving each
tensor to the record that produced it or to a declared step input, reads
from the record's frame what the op needs besides its inputs (parameters
``p``, a loss's targets ``t``, sample weights ``w`` and squared-error
``denom``), and emits one plan node per record, in the
original execution order.  The plan is a general DAG, not just a
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
``Linear`` output read by nothing else runs in place over that output and
shares its grad buffer with the ``Linear`` (:func:`_reuse_relu_buffers`).

The executor compiles training steps only; the compiled inference forward
is the model's leaf chain (:mod:`repro.nn.chain`).  Both entry points
(``step`` and ``step_fn``) are thin wrappers over one call path,
:meth:`GraphReplay._call`.  It builds the call's signature — the step
function's identity, and the input names, shapes and dtypes — and resolves
it in one order: the outcome remembered in the open ``epoch()`` scope, then
the plan dict (keyed by the signature plus the structural fingerprint),
then a capture.  It then replays the plan, or runs the one eager reference
path.

Fallback rules (checked on *every* call, before replaying; inside an
``epoch()`` scope the model-structure rule is checked once per epoch):

* replay switched off by the ambient ``use_graph_replay(False)`` scope, or
  gradients disabled → eager step;
* batch shape/dtype or target shape/dtype changed → separate plan per
  signature (the capture step for a new signature runs eagerly);
* model structure changed — layer added/removed/replaced, parameter shape,
  dtype or ``requires_grad`` changed, the optimizer's parameter list
  changed, or the engine default dtype changed → recapture (an eager step)
  under the new signature; stale plans are never replayed;
* unsupported structure (array math outside the op table, constants
  created inside the step function, loss targets that are not step inputs,
  a traced op whose output does not reach the loss, a parameter outside
  the optimizer that requires grad) → the signature is
  marked unsupported and every step with it runs eagerly, with the reason
  recorded in :attr:`ReplayStats.fallbacks`.

Supported ops are the entries of the op table, however they are called: the
leaf layers ``Linear`` and ``ReLU``, ``Tensor.relu()``, tensor ``+`` and
``*`` (e.g. summed or weighted-sum losses), and the fused losses
``cross_entropy`` (optionally per-sample weighted), ``soft_cross_entropy``
and the squared-error ``l2_loss``.  Optimizer updates reuse ``optimizer.step()``
itself — gradients are written into the optimizer's flat gradient views
and bound to ``param.grad``, so SGD momentum and Adam state evolve exactly
as in eager mode.  A parameter that
requires grad but is not the optimizer's has no view, so such a step is
unsupported and runs eagerly.

Beyond the classic ``step(x, y)`` chain API, the executor exposes:

* :meth:`GraphReplay.step_fn` — capture/replay an arbitrary step *function*
  ``fn(model, batch)`` returning a scalar loss Tensor (FixMatch's two-view
  consistency step runs through this);
* :meth:`GraphReplay.epoch` — the once-per-epoch guard: inside the scope
  the structural fingerprint is computed once and each signature's
  outcome is remembered, instead of both on every call.  The
  caller promises not to mutate the model structure mid-epoch; every
  training loop in the pipeline (:mod:`repro.nn.training`, FixMatch, the
  multi-task joint step, the ZSL-KG pretrain) calls the executor only
  inside one.

A training step called with ``compute_loss=False`` skips every scalar no
one reads (:func:`_value_elision`): the loss values and the adds/muls that
only combine them.  Gradients do not depend on those scalars, so the update
is unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import functional as F
from .modules import Module, op_of
from .ops import Frame, Op, ReplayUnsupported
from .optim import Optimizer
from .tensor import (Tensor, get_default_dtype, graph_replay_enabled,
                     is_grad_enabled, trace_ops)

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
        #: runs a backward (its output requires grad)
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
    (once per epoch inside :meth:`GraphReplay.epoch`).

    Captures everything a compiled plan depends on: the identity and type of
    every submodule in attribute order, and for each leaf layer what its
    table op's ``fingerprint`` names (parameter identities, shapes, dtypes
    and ``requires_grad`` flags).  Any mutation — adding a layer, replacing
    a head, freezing a parameter — changes the fingerprint.
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

    def run(self, inputs: Dict[str, np.ndarray],
            need_value: bool = True) -> Optional[float]:
        for node, attr, key, cast_dtype in self._input_sites:
            arr = inputs[key]
            if cast_dtype is not None and arr.dtype != cast_dtype:
                # The eager path casts through ``Tensor(x)``; match it.
                arr = arr.astype(cast_dtype)
            setattr(node, attr, arr)
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


def _reuse_relu_buffers(built: List[_Node]) -> set:
    """Buffer-reuse pass: run an ``inplace`` op (ReLU) over its input.

    Applies when the input is the output of a ``reuse_out`` op (``Linear``)
    that feeds nothing else, so no other kernel reads the pre-activation
    values (neither node can be the plan root, which is a scalar loss).
    The ReLU then writes ``max(x, 0)`` over the producer's output; in
    backward it masks its own grad buffer in place, and that buffer is the
    producer's grad (wired in :func:`_compile`).  The producer's VJP never
    reads its output, so the overwrite is invisible to it.  Returns the ids
    of the nodes that run in place.
    """
    consumers: Dict[int, int] = {}
    for node in built:
        for src, _ in node.srcs.values():
            consumers[id(src)] = consumers.get(id(src), 0) + 1
    inplace = set()
    for node in built:
        if not node.op.inplace:
            continue
        (src, _), = node.srcs.values()
        if isinstance(src, _Node) and src.op.reuse_out \
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


class _Resolver:
    """Maps each traced tensor to its plan node or step input.

    Walks the records backward from a tensor through the tensors that
    produced it, building one :class:`_Node` per record.  A class rather
    than a self-recursive closure: such a closure's cell holds the
    function itself and, through the producer map, every trace record of
    the capture, a reference cycle only the cyclic GC would free.
    """

    def __init__(self, records: List[tuple], input_keys: Dict[int, str]):
        # producer map: which record made each tensor
        self.prod = {id(rec[3]): (idx, rec) for idx, rec in enumerate(records)}
        self.input_keys = input_keys
        self.nodes: Dict[int, object] = {}
        self.built: List[_Node] = []
        self.input_sites: List[tuple] = []

    def key_for(self, obj, what: str) -> str:
        oid = id(obj)
        key = self.input_keys.get(oid)
        if key is None:
            if oid in self.input_keys:
                raise ReplayUnsupported(
                    f"{what} aliases an array bound to multiple step inputs")
            raise ReplayUnsupported(f"{what} is not a step input")
        return key

    def resolve(self, t):
        tid = id(t)
        node = self.nodes.get(tid)
        if node is not None:
            return node
        key = self.input_keys.get(tid)
        if key is not None:
            node = _InputNode(key, t.data.dtype)
            self.nodes[tid] = node
            return node
        if tid in self.input_keys:  # registered but aliased (None entry)
            raise ReplayUnsupported(
                "the same array is bound to multiple step inputs")
        entry = self.prod.get(tid)
        if entry is None:
            raise ReplayUnsupported(
                "tensor produced outside the replayable op set "
                "(custom tensor math or a constant created in the step?)")
        idx, (op, frame, inputs, _) = entry
        node = _Node(op, idx, bool(t.requires_grad))
        node.p = frame.p
        arrays = {}
        for name, tensor in zip(op.inputs, inputs):
            src = self.resolve(tensor)
            node.srcs[name] = (src, tensor.requires_grad)
            if isinstance(src, _InputNode):
                self.input_sites.append((node, name, src.key, src.cast_dtype))
            arrays[name] = tensor.data
        if op.scalar:
            if arrays["x"].ndim != 2:
                raise ReplayUnsupported("losses replay on 2-D logits only")
            self.input_sites.append((node, "t", self.key_for(
                frame.t, "loss targets"), np.asarray(frame.t).dtype))
            if frame.w is not None:
                self.input_sites.append((node, "w", self.key_for(
                    frame.w, "loss sample weights"), None))
                arrays["w"] = frame.w
            # Squared error's denominator; the cross entropies set their own.
            node.denom = frame.denom
        op.alloc(node, arrays, t.data)
        self.nodes[tid] = node
        self.built.append(node)
        return node


def _compile(records: List[tuple], root: Tensor,
             input_keys: Dict[int, str],
             optimizer: Optimizer) -> _CompiledPlan:
    """Build a replay plan from one traced eager training step, or raise
    :class:`ReplayUnsupported`."""
    resolver = _Resolver(records, input_keys)
    nodes, built = resolver.nodes, resolver.built
    root_node = resolver.resolve(root)
    if isinstance(root_node, _InputNode) or not built:
        raise ReplayUnsupported("traced graph contains no replayable ops")
    if not root_node.train:
        raise ReplayUnsupported("loss does not require gradients")

    # Every traced op must be reachable from the root: the plan runs only
    # the ops the loss depends on, so an op outside it would be work the
    # eager step does and the replayed step silently skips.
    for op, _, _, out in records:
        if id(out) not in nodes:
            raise ReplayUnsupported(f"traced {op.name} is not reachable "
                                    "from the loss")

    built.sort(key=lambda n: n.index)
    inplace = _reuse_relu_buffers(built)
    # Node-to-node links bind after the buffer-reuse pass, which may
    # repoint a ReLU's output at its producer's buffer.
    for node in built:
        for name, (src, _) in node.srcs.items():
            if isinstance(src, _Node):
                setattr(node, name, src.out)
    forwards = [(node.op.forward, node) for node in built]

    backwards: List[_Node] = []
    param_targets: Dict[int, np.ndarray] = {}
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
    # to each target writes it, later ones accumulate — exactly the eager
    # engine's copy-then-add ordering.
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
                    try:
                        param_targets[id(param)] = optimizer.grad_view_for(
                            param)
                    except KeyError:
                        raise ReplayUnsupported(
                            "a parameter outside the optimizer requires "
                            "grad") from None
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

    # Optimizer parameters this plan computes no gradient for.
    clear_grads = tuple(p for p in optimizer.parameters
                        if id(p) not in param_targets)
    value_losses, lean_forwards = _value_elision(built)
    return _CompiledPlan(forwards, lean_forwards, value_losses, backwards,
                         resolver.input_sites, clear_grads, root_node,
                         optimizer)


# --------------------------------------------------------------------------- #
# Public executor
# --------------------------------------------------------------------------- #


class _UnsupportedPlan:
    """Negative cache entry: this signature cannot be compiled (or, as
    ``_CACHE_FULL``, finds the plan dict full).

    Pins the model's modules (and the step function) so their ids — which
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
    — :meth:`GraphReplay.step` uses this for the model input so an integer
    feature array gets the exact ``Tensor(x)`` cast the eager step applies.
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

#: the outcome of a call whose signature finds the plan dict full
_CACHE_FULL = _UnsupportedPlan(None, "plan_cache_full")


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
        #: full signature -> compiled plan or ``_UnsupportedPlan``
        self._plans: Dict[tuple, object] = {}
        #: while an :meth:`epoch` scope is open: what each call signature
        #: resolved to (a plan or an ``_UnsupportedPlan``), and the
        #: structural fingerprint once a call has computed it; None outside
        self._epoch_outcomes: Optional[Dict[tuple, object]] = None
        self._epoch_fingerprint: Optional[tuple] = None
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

        self._chain_fn = _chain

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

    # -- the one call path ----------------------------------------------- #
    def _call(self, fn, inputs: Dict[str, np.ndarray], tensor_keys=(),
              compute_loss: bool = True) -> Optional[float]:
        """Resolve one training call, then replay its plan or run it eagerly.

        The call's signature is ``fn``'s identity and the input names (in
        the caller's order), shapes and dtypes.  It resolves to the outcome
        remembered in the open :meth:`epoch` scope, else to the plan dict
        entry under the signature plus the structural fingerprint, else to
        a capture, which runs the step eagerly itself.  Returns the loss
        float (None when a replayed step elides it).
        """
        if not graph_replay_enabled() or not is_grad_enabled():
            return self._eager(fn, inputs, tensor_keys, _R_DISABLED)
        key = (id(fn),
               tuple([(k, v.shape, v.dtype) for k, v in inputs.items()]))
        outcomes = self._epoch_outcomes
        plan = None if outcomes is None else outcomes.get(key)
        if plan is None:
            sig = key + self._fingerprint_sig()
            plan = self._plans.get(sig)
            loss = None
            if plan is None and len(self._plans) >= _MAX_PLANS:
                plan = _CACHE_FULL
            elif plan is None:
                plan, loss = self._capture(fn, inputs, tensor_keys)
                pins = (tuple(self.model.modules()), fn)
                if isinstance(plan, str):
                    plan = _UnsupportedPlan(pins, plan)
                    self._count_eager(plan.reason)
                else:
                    plan.pins = pins
                    self._count_capture()
                self._plans[sig] = plan
            if outcomes is not None:
                outcomes[key] = plan
            if loss is not None:
                return loss
        if isinstance(plan, _UnsupportedPlan):
            return self._eager(fn, inputs, tensor_keys, plan.reason)
        self._count_replay()
        return plan.run(inputs, compute_loss)

    def _eager(self, fn, inputs: Dict[str, np.ndarray], tensor_keys,
               reason: str) -> float:
        """The eager reference path of :meth:`_call`: ``fn`` on the tape,
        then the optimizer update."""
        self._count_eager(reason)
        bound, _ = _wrap_inputs(inputs, tensor_keys)
        root = fn(self.model, bound)
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        return root.item()

    # -- capture --------------------------------------------------------- #
    def _capture(self, fn, inputs: Dict[str, np.ndarray], tensor_keys):
        """Run one eager step with the op tracer on and compile it.

        The step always completes eagerly — including when compilation
        fails — so the capture step is indistinguishable from a plain eager
        step (same updates, and ``zero_grad`` clears any stale gradient
        state before buffer-bound gradients take over).  The eager step
        finishes first and its traced outputs drop their gradients before
        :func:`_compile` allocates the plan's buffers, so the capture never
        holds both at once; the compiler reads frames, shapes, dtypes and
        parameter identities only, none of which the step changes.
        Returns ``(plan or failure reason, loss)``.
        """
        bound, ids = _wrap_inputs(inputs, tensor_keys)
        records: List[tuple] = []
        with trace_ops(records):
            root = fn(self.model, bound)
        if not isinstance(root, Tensor):
            raise TypeError("step function must return a loss Tensor")
        self.optimizer.zero_grad()
        root.backward()
        self.optimizer.step()
        loss = root.item()
        for record in records:
            record[3].grad = None
        try:
            if root.shape != ():
                raise ReplayUnsupported("step function must return a "
                                        "scalar loss")
            plan = _compile(records, root, ids, self.optimizer)
        except ReplayUnsupported as exc:
            plan = f"unsupported: {exc}"
        return plan, loss

    # -- the epoch scope ------------------------------------------------- #
    def _fingerprint_sig(self) -> tuple:
        fingerprint = self._epoch_fingerprint
        if fingerprint is None:
            fingerprint = (np.dtype(get_default_dtype()),
                           tuple(id(p) for p in self.optimizer.parameters),
                           _model_fingerprint(self.model))
            if self._epoch_outcomes is not None:
                self._epoch_fingerprint = fingerprint
        return fingerprint

    @contextmanager
    def epoch(self):
        """Scope one epoch of calls on this stepper.

        Inside the scope the structural guard runs once per call signature
        instead of on every call: the fingerprint is computed once, and each
        signature's first call remembers what it resolved to — a compiled
        plan or an eager fallback — for the rest of the epoch.  The caller
        promises that the model structure, the optimizer's parameter list
        and the engine dtype do not change inside the scope.  The next
        scope fingerprints afresh, so a change between epochs is caught.
        Not cached across scopes: a version counter bumped on attribute
        assignment would miss in-place container edits (``layers[i] = ...``).
        """
        outer = (self._epoch_outcomes, self._epoch_fingerprint)
        self._epoch_outcomes, self._epoch_fingerprint = {}, None
        try:
            yield self
        finally:
            self._epoch_outcomes, self._epoch_fingerprint = outer

    # -- public entry points --------------------------------------------- #
    def step(self, x: np.ndarray, y: np.ndarray,
             compute_loss: bool = True) -> Optional[float]:
        """One training step (forward, loss, backward, optimizer update).

        With ``compute_loss=False`` a replayed step elides materializing the
        loss scalar (the gradient does not depend on it) and returns None —
        used by loops that discard the training loss, like the ZSL-KG
        pretrain.  Eager/capture steps still compute and return it.
        """
        return self._call(self._chain_fn,
                          {"x": np.asarray(x), "y": np.asarray(y)},
                          ("x",), compute_loss)

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
        return self._call(fn, {k: np.asarray(v) for k, v in inputs.items()},
                          (), compute_loss)
