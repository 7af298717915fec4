"""The op table: one definition of each op for the eager tape, the replay
compiler and the leaf-chain forward.

Each entry is an :class:`Op`.  It holds the op's forward kernel, one VJP
kernel per gradient it deposits (``grads``, in deposit order), the rule
that sizes its replay buffers (``alloc``), and the flags the replay
compiler's passes read (``inplace``, ``reuse_out``, ``elidable``,
``vjp_reads``, ``scalar``).  Kernels work on a :class:`Frame`, which holds
one application's inputs, parameters and buffers as attributes:

* the eager tape (:func:`repro.nn.tensor.apply`) and the leaf chain
  (:mod:`repro.nn.chain`) run a kernel on a fresh frame, whose buffers
  are None, so every NumPy call allocates its result;
* a replay node is a frame whose buffers ``alloc`` preallocated, so the
  same calls write in place.

Both run the same NumPy calls in the same order, which is why replayed
training is bit-identical to eager training.  The calls are the eager
engine's own: ``np.dot`` for every GEMM (bit-equal to ``@``,
``tests/nn/test_dot_kernels.py``), a separate broadcast bias add, and
``np.add.reduce`` for the bias gradient.  Folding the bias into the GEMM is
not bit-identical on OpenBLAS (``docs/performance.md``).

A VJP kernel ``kernel(frame, grad, out)`` returns the gradient for one
target, written into ``out`` (a fresh array when ``out`` is None).  A new op
costs one entry here plus one case in the gradient fuzz and one in the
replay-vs-eager differential suite, and comes with the model that applies
it: ``tests/nn/test_op_table.py`` checks both cases, and that a default
``Controller.run`` runs every entry's forward kernel.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Frame", "Op", "ReplayUnsupported", "LINEAR", "RELU", "ADD",
           "MUL", "HARD_CE", "SOFT_CE", "SQERR", "TABLE"]


class ReplayUnsupported(RuntimeError):
    """Raised during capture when a traced step cannot be compiled."""


class Frame:
    """One application of an op: its inputs, parameters and buffers.

    Every name defaults to None at class level, so a kernel handed a fresh
    frame lets NumPy allocate each result.
    """

    #: inputs (``x``; ``a``/``b`` for the binary ops; loss targets ``t``
    #: and sample weights ``w``) and parameter tensors ``p`` (read through
    #: ``.data`` on every call)
    x = a = b = t = w = None
    p: tuple = ()
    #: whether a VJP will run (ReLU keeps its mask only then), and whether
    #: a loss must produce its scalar (the replay elides unread ones)
    train = False
    need_value = True
    #: buffers (a forward also stashes what its VJPs read, e.g. a loss's
    #: ``denom`` and cast targets ``tv``, before any VJP runs)
    out = mask = tmp = rows = max = shifted = exp = sumexp = logs = None
    prod = tsum = tw = diff = sq = gmul = None


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the broadcast dimensions so it matches ``shape``.

    NumPy broadcasting implicitly expands dimensions during the forward pass;
    the corresponding backward pass must sum the gradient over those expanded
    dimensions.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sum_to(grad: np.ndarray, shape, out):
    grad = _unbroadcast(grad, shape)
    if out is None:
        return grad
    np.copyto(out, grad)
    return out


def _scalar(n: Frame, value: float, dtype) -> None:
    if n.out is None:
        n.out = np.asarray(value, dtype=dtype)
    else:
        n.out[()] = value


def _param_key(p):
    return None if p is None else (id(p), p.data.shape, p.data.dtype,
                                   p.requires_grad)


class Op:
    """One table entry; subclasses override what differs."""

    name = ""
    #: the frame attributes the op reads as traced tensors, in order
    inputs: Tuple[str, ...] = ("x",)
    #: the module attributes holding its parameters, in ``Frame.p`` order
    params: Tuple[str, ...] = ()
    #: ``(target, kernel)`` in deposit order; a target is a ``params``
    #: index or an ``inputs`` name
    grads: tuple = ()
    #: may write its output over its sole input's buffer (replay reuse)
    inplace = False
    #: its VJP never reads its own output, so an ``inplace`` sole consumer
    #: may overwrite it and share its gradient buffer
    reuse_out = False
    #: its forward only forms its value: skip it when nobody reads it
    elidable = False
    #: for an elidable op: the inputs each gradient's kernel reads
    vjp_reads: Dict[str, Tuple[str, ...]] = {}
    #: produces a loss scalar, which a replayed step may skip
    scalar = False

    def alloc(self, n: Frame, ins: Dict[str, np.ndarray],
              out: np.ndarray) -> None:
        """Preallocate ``n``'s buffers from one traced application (the
        buffer-shape rule); raise :class:`ReplayUnsupported` for a case
        the kernels cannot replay."""
        n.out = np.empty_like(out)

    def forward(self, n: Frame) -> None:
        raise NotImplementedError

    def fingerprint(self, module) -> tuple:
        """What a compiled plan assumes about ``module`` besides its type."""
        return tuple(_param_key(getattr(module, name)) for name in self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<op {self.name}>"


# --------------------------------------------------------------------------- #
# Layers
# --------------------------------------------------------------------------- #


class _Linear(Op):
    """``x @ W + b``."""

    name = "linear"
    params = ("weight", "bias")
    reuse_out = True

    def alloc(self, n, ins, out):
        x = ins["x"]
        # Eager keeps each gradient in the dtype its op produced, which a
        # preallocated gradient buffer cannot reproduce.
        if not x.dtype == n.p[0].data.dtype == out.dtype:
            raise ReplayUnsupported("a Linear layer mixing dtypes is not "
                                    "replayable")
        n.out = np.empty_like(out)

    def forward(self, n):
        weight, bias = n.p
        n.out = out = np.dot(n.x, weight.data, out=n.out)
        if bias is not None:
            out += bias.data

    def _grad_w(n, g, out):
        return np.dot(n.x.T, g, out=out)

    def _grad_b(n, g, out):
        return np.add.reduce(g, axis=0, out=out)

    def _grad_x(n, g, out):
        return np.dot(g, n.p[0].data.T, out=out)

    grads = ((0, _grad_w), (1, _grad_b), ("x", _grad_x))


class _ReLU(Op):
    """``max(x, 0)``; negatives map to +0.0."""

    name = "relu"
    inplace = True

    def alloc(self, n, ins, out):
        n.out = np.empty_like(out)
        if n.train:
            n.mask = np.empty(out.shape, dtype=bool)

    def forward(self, n):
        # The mask is taken before ``maximum`` may overwrite ``x``.
        if n.train:
            n.mask = np.greater(n.x, 0, out=n.mask)
        n.out = np.maximum(n.x, 0, out=n.out)

    def _grad_x(n, g, out):
        return np.multiply(g, n.mask, out=out)

    grads = (("x", _grad_x),)


# --------------------------------------------------------------------------- #
# Tensor combinators (loss fan-in, weighted losses, residual sums)
# --------------------------------------------------------------------------- #


class _Add(Op):
    name = "add"
    inputs = ("a", "b")
    elidable = True

    def forward(self, n):
        n.out = np.add(n.a, n.b, out=n.out)

    def _grad_a(n, g, out):
        return _sum_to(g, n.a.shape, out)

    def _grad_b(n, g, out):
        return _sum_to(g, n.b.shape, out)

    grads = (("a", _grad_a), ("b", _grad_b))


class _Mul(Op):
    name = "mul"
    inputs = ("a", "b")
    elidable = True
    vjp_reads = {"a": ("b",), "b": ("a",)}

    def alloc(self, n, ins, out):
        # Product staging buffers: ``grad * other`` has the output's shape.
        n.out = np.empty_like(out)
        n.tmp = np.empty_like(out)
        n.gmul = np.empty_like(out)

    def forward(self, n):
        n.out = np.multiply(n.a, n.b, out=n.out)

    def _grad_a(n, g, out):
        return _sum_to(np.multiply(g, n.b, out=n.tmp), n.a.shape, out)

    def _grad_b(n, g, out):
        return _sum_to(np.multiply(g, n.a, out=n.gmul), n.b.shape, out)

    grads = (("a", _grad_a), ("b", _grad_b))


# --------------------------------------------------------------------------- #
# Fused losses
# --------------------------------------------------------------------------- #


def check_label_range(targets: np.ndarray, num_classes: int) -> None:
    """Reject integer labels outside ``[0, num_classes)``.

    NumPy's fancy indexing would silently wrap negative labels, so the
    fused cross-entropy kernel (and ``one_hot``) validate explicitly.
    """
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("labels out of range for num_classes "
                         f"{num_classes}: [{targets.min()}, {targets.max()}]")


class _Loss(Op):
    scalar = True

    def alloc(self, n, ins, out):
        z = ins["x"]
        rows, dtype = len(z), z.dtype
        n.out = np.empty((), dtype=dtype)
        n.max = np.empty((rows, 1), dtype=dtype)
        n.sumexp = np.empty((rows, 1), dtype=dtype)
        n.shifted = np.empty(z.shape, dtype=dtype)
        n.exp = np.empty(z.shape, dtype=dtype)

    def _softmax_parts(self, n, z):
        n.max = np.maximum.reduce(z, axis=1, keepdims=True, out=n.max)
        n.shifted = np.subtract(z, n.max, out=n.shifted)
        n.exp = np.exp(n.shifted, out=n.exp)
        n.sumexp = np.add.reduce(n.exp, axis=1, keepdims=True, out=n.sumexp)


class _HardCE(_Loss):
    """Softmax + cross entropy against integer targets, optionally weighted
    per sample (FixMatch's confidence mask)."""

    name = "cross_entropy"

    def alloc(self, n, ins, out):
        super().alloc(n, ins, out)
        z = ins["x"]
        n.rows = np.arange(len(z))
        n.logs = np.empty(len(z), dtype=z.dtype)

    def forward(self, n):
        z = n.x
        t = n.tv = np.asarray(n.t, dtype=np.int64)
        check_label_range(t, z.shape[1])
        if n.rows is None:
            n.rows = np.arange(len(z))
        self._softmax_parts(n, z)
        if n.w is not None:
            n.wv = np.asarray(n.w, dtype=z.dtype)
            n.denom = float(n.wv.sum()) or 1.0
        else:
            n.denom = float(len(z))
        if not n.need_value:
            return
        picked = n.shifted[n.rows, t]
        picked -= np.log(n.sumexp[:, 0], out=n.logs)
        total = n.wv @ picked if n.w is not None else picked.sum()
        _scalar(n, -float(total) / n.denom, z.dtype)

    def _grad_x(n, g, out):
        d = np.divide(n.exp, n.sumexp, out=out)
        d[n.rows, n.tv] -= 1.0
        if n.w is not None:
            d *= n.wv[:, None]
        d *= float(g) / n.denom
        return d

    grads = (("x", _grad_x),)


class _SoftCE(_Loss):
    """Cross entropy against probability-vector targets (paper Eq. 7)."""

    name = "soft_cross_entropy"

    def alloc(self, n, ins, out):
        super().alloc(n, ins, out)
        z = ins["x"]
        n.logs = np.empty((len(z), 1), dtype=z.dtype)
        n.tsum = np.empty((len(z), 1), dtype=z.dtype)
        n.prod = np.empty(z.shape, dtype=z.dtype)
        if ins.get("w") is not None:
            n.tw = np.empty(z.shape, dtype=z.dtype)

    def forward(self, n):
        z = n.x
        t = np.asarray(n.t, dtype=z.dtype)
        self._softmax_parts(n, z)
        if n.w is not None:
            w = np.asarray(n.w, dtype=z.dtype)
            t = np.multiply(t, w[:, None], out=n.tw)
            n.denom = float(w.sum()) or 1.0
        else:
            n.denom = float(len(z))
        n.tv = t
        if not n.need_value:
            return
        # loss = -sum(t * (shifted - log(sumexp))) / denom
        logs = np.log(n.sumexp, out=n.logs)
        prod = n.prod = np.subtract(n.shifted, logs, out=n.prod)
        np.multiply(prod, t, out=prod)
        _scalar(n, -float(prod.sum()) / n.denom, z.dtype)

    def _grad_x(n, g, out):
        # d/dz of -sum(t * logsoftmax(z)) is softmax(z) * rowsum(t) - t.
        d = np.divide(n.exp, n.sumexp, out=out)
        d *= np.add.reduce(n.tv, axis=1, keepdims=True, out=n.tsum)
        d -= n.tv
        d *= float(g) / n.denom
        return d

    grads = (("x", _grad_x),)


class _SqErr(Op):
    """``sum((p - t)^2) / denom``, with the denominator set on the frame
    (``l2_loss`` divides by the row count)."""

    name = "sqerr"
    scalar = True

    def alloc(self, n, ins, out):
        n.out = np.empty_like(out)
        n.diff = np.empty_like(ins["x"])
        n.sq = np.empty_like(ins["x"])

    def forward(self, n):
        n.diff = np.subtract(n.x, n.t, out=n.diff)
        if n.need_value:
            sq = np.multiply(n.diff, n.diff, out=n.sq)
            _scalar(n, float(sq.sum()) / n.denom, n.x.dtype)

    def _grad_x(n, g, out):
        return np.multiply(n.diff, 2.0 * float(g) / n.denom, out=out)

    grads = (("x", _grad_x),)


LINEAR, RELU = _Linear(), _ReLU()
ADD, MUL = _Add(), _Mul()
HARD_CE, SOFT_CE, SQERR = _HardCE(), _SoftCE(), _SqErr()

#: every op, by name
TABLE: Dict[str, Op] = {op.name: op for op in (
    LINEAR, RELU, ADD, MUL, HARD_CE, SOFT_CE, SQERR)}
