"""Optimizers used to train modules, baselines, backbones, and the end model.

The paper's training recipes (Appendix A.3) use SGD with momentum (plain and
Nesterov) and Adam; both are implemented here against the
:class:`repro.nn.Parameter` abstraction.

Both optimizers run their elementwise update in *fused flat* form whenever
possible: all per-parameter state (momentum/moment buffers, scratch space)
lives in per-parameter views of one contiguous array, gradients are gathered
into a shared flat gradient buffer, and the update math executes as a handful
of ufunc calls over the whole flat array instead of ``O(kernels × params)``
dispatches.  Elementwise ops over disjoint views are bit-identical to the
per-parameter loop, which is kept as the fallback for steps where some
parameters have no gradient (their state must not advance) or parameters mix
dtypes.  The graph replay executor (:mod:`repro.nn.replay`) writes gradients
directly into the flat views (:meth:`Optimizer.grad_view_for`), making the
gather step a no-op on the replay fast path.

The parameters themselves live in the same layout.  At construction the
optimizer copies every parameter into one contiguous *arena* and rebinds each
``p.data`` to its view of it, so weight decay reads, and the update writes,
all parameters with one ufunc call each.  Everything else keeps reading
``p.data`` live.  Each step checks that every ``p.data`` is still its arena
view; a rebound one (``load_state_dict``, another optimizer's arena) is
copied back in and rebound.  A parameter listed twice cannot be bound to two
views, and one rebound to an array whose shape or dtype no longer fits its
slot retires the arena; both turn flat mode off for good, so every later
step takes the per-parameter fallback.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .modules import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer holding a parameter list and a mutable learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.initial_lr = float(lr)
        #: flat mode needs one dtype across distinct parameters; it then
        #: owns a flat gradient buffer and the parameter arena, each with
        #: per-parameter views
        self._flat_ok = (
            len({p.data.dtype for p in self.parameters}) == 1
            and len({id(p) for p in self.parameters}) == len(self.parameters))
        self._flat_grad: Optional[np.ndarray] = None
        self._flat_grad_views: List[np.ndarray] = []
        self._arena: Optional[np.ndarray] = None
        self._arena_views: List[np.ndarray] = []
        #: the update rule's state buffers, built on the first step by
        #: :meth:`_materialize`: one ``(flat array or None, per-parameter
        #: arrays)`` pair each
        self._state: Optional[List[tuple]] = None
        if self._flat_ok:
            self._flat_grad, self._flat_grad_views = self._alloc_flat()
            self._arena, self._arena_views = self._alloc_flat()
            for p, view in zip(self.parameters, self._arena_views):
                np.copyto(view, p.data)
                p.data = view

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply the update rule once over the whole arena (the fused flat
        path), or else once per parameter that has a gradient, on the same
        state buffers/views (the fallback: some gradients missing, mixed
        dtypes, a repeated parameter or a retired arena)."""
        if self._state is None:
            self._state = self._materialize()
        self._sync_arena()
        grad_flat = self._gather_grads()
        if grad_flat is not None:
            self._update(self._arena, grad_flat,
                         *[flat for flat, _ in self._state])
            return
        for i, p in enumerate(self.parameters):
            if p.grad is not None:
                self._update(p.data, p.grad,
                             *[views[i] for _, views in self._state])

    def _materialize(self) -> List[tuple]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _update(self, data, grad, *state) -> None:  # pragma: no cover
        """The update rule over ``data`` in place (abstract)."""
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        self.lr = float(lr)

    def state_dict(self) -> Dict[str, float]:
        return {"lr": self.lr, "initial_lr": self.initial_lr}

    # ------------------------------------------------------------------ #
    # Fused flat execution support
    # ------------------------------------------------------------------ #
    def _alloc_flat(self, fill: Optional[float] = None):
        """One contiguous array covering all parameters + per-param views."""
        dtype = self.parameters[0].data.dtype
        total = sum(p.data.size for p in self.parameters)
        flat = (np.empty(total, dtype=dtype) if fill is None
                else np.full(total, fill, dtype=dtype))
        views, offset = [], 0
        for p in self.parameters:
            views.append(flat[offset:offset + p.data.size].reshape(p.data.shape))
            offset += p.data.size
        return flat, views

    def _buffer(self, zero: bool = False) -> tuple:
        """One state buffer: views of a flat array in flat mode, standalone
        per-parameter arrays otherwise; zero-filled or uninitialized."""
        if self._flat_ok:
            return self._alloc_flat(fill=0.0 if zero else None)
        make = np.zeros_like if zero else np.empty_like
        return None, [make(p.data) for p in self.parameters]

    def _decay_buffer(self) -> tuple:
        """The weight-decayed gradient's buffer (all None without decay)."""
        if self.weight_decay:
            return self._buffer()
        return None, [None] * len(self.parameters)

    def grad_view_for(self, param: Parameter) -> Optional[np.ndarray]:
        """The flat-gradient view backing ``param``, or None.

        The replay executor computes gradients straight into these views so
        the flat update needs no gather copy.  Callers that bind the view to
        ``param.grad`` get bit-identical behavior either way — the gather in
        :meth:`_gather_grads` skips views that are already in place.
        """
        if not self._flat_ok:
            return None
        for p, view in zip(self.parameters, self._flat_grad_views):
            if p is param:
                return view
        return None

    def _gather_grads(self) -> Optional[np.ndarray]:
        """Copy every ``param.grad`` into the flat buffer (no-op per view
        already written in place).  Returns None — demanding the per-param
        fallback — when flat mode is unavailable or any gradient is missing
        (those parameters' state must not advance)."""
        if not self._flat_ok:
            return None
        grads = [p.grad for p in self.parameters]
        if any(g is None for g in grads):
            return None
        for g, view in zip(grads, self._flat_grad_views):
            if g is not view:
                np.copyto(view, g)
        return self._flat_grad

    def _sync_arena(self) -> None:
        """Bind every ``p.data`` back to its arena view.

        A parameter whose ``data`` was rebound to an array that fits its
        slot is copied back in; one that no longer fits turns flat mode off.
        """
        if not self._flat_ok:
            return
        for p, view in zip(self.parameters, self._arena_views):
            data = p.data
            if data is not view:
                if data.shape != view.shape or data.dtype != view.dtype:
                    self._flat_ok = False
                    self._arena = None
                    return
                np.copyto(view, data)
                p.data = view


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, Nesterov and weight decay."""

    def __init__(self, parameters: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("Nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay

    def _materialize(self) -> List[tuple]:
        # The momentum buffer, the scaled update, the decayed gradient.
        return [self._buffer(zero=True), self._buffer(), self._decay_buffer()]

    def _update(self, data, grad, velocity, step_buf, decayed) -> None:
        momentum = self.momentum
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=decayed)
            decayed += grad
            grad = decayed
        if momentum:
            velocity *= momentum
            velocity += grad
            if self.nesterov:
                np.multiply(velocity, momentum, out=step_buf)
                step_buf += grad
                update = step_buf
            else:
                update = velocity
        else:
            update = grad
        np.multiply(update, self.lr, out=step_buf)
        np.subtract(data, step_buf, out=data)


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), used for the end model and ZSL-KG."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0

    def _materialize(self) -> List[tuple]:
        # The two moments, a scratch buffer, the decayed gradient.
        return [self._buffer(zero=True), self._buffer(zero=True),
                self._buffer(), self._decay_buffer()]

    def step(self) -> None:
        self._t += 1
        super().step()

    def _update(self, data, grad, m, v, scratch, decayed) -> None:
        # 13 ufunc calls (15 with decay), whole-buffer on the flat path.
        beta1, beta2 = self.beta1, self.beta2
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=decayed)
            decayed += grad
            grad = decayed
        np.multiply(grad, 1.0 - beta1, out=scratch)
        m *= beta1
        m += scratch
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - beta2
        v *= beta2
        v += scratch
        # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, 1.0 - beta2 ** self._t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, scratch, out=scratch)
        scratch *= self.lr / (1.0 - beta1 ** self._t)
        np.subtract(data, scratch, out=data)
