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
        if self._flat_ok:
            self._flat_grad, self._flat_grad_views = self._alloc_flat()
            self._arena, self._arena_views = self._alloc_flat()
            for p, view in zip(self.parameters, self._arena_views):
                np.copyto(view, p.data)
                p.data = view

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
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
        # Per-parameter state and work buffers; allocated on first use as
        # views of flat arrays when possible (see module docstring), as
        # standalone arrays otherwise.  ``_step_buf`` composes the scaled
        # update, ``_decayed`` holds the weight-decayed gradient.
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._step_buf: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._decayed: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._velocity_flat: Optional[np.ndarray] = None
        self._step_flat: Optional[np.ndarray] = None
        self._decayed_flat: Optional[np.ndarray] = None
        self._materialized = False

    def _materialize(self) -> None:
        self._materialized = True
        if self._flat_ok:
            self._velocity_flat, self._velocity = self._alloc_flat(fill=0.0)
            self._step_flat, self._step_buf = self._alloc_flat()
            if self.weight_decay:
                self._decayed_flat, self._decayed = self._alloc_flat()
        else:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]
            self._step_buf = [np.empty_like(p.data) for p in self.parameters]
            if self.weight_decay:
                self._decayed = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        if not self._materialized:
            self._materialize()
        momentum = self.momentum
        lr = self.lr
        weight_decay = self.weight_decay
        self._sync_arena()
        grad_flat = self._gather_grads()
        if grad_flat is not None:
            # Fused flat path: a handful of whole-buffer ufunc calls.
            arena = self._arena
            if weight_decay:
                decayed = self._decayed_flat
                np.multiply(arena, weight_decay, out=decayed)
                decayed += grad_flat
                grad_flat = decayed
            if momentum:
                velocity = self._velocity_flat
                velocity *= momentum
                velocity += grad_flat
                if self.nesterov:
                    np.multiply(velocity, momentum, out=self._step_flat)
                    self._step_flat += grad_flat
                    update = self._step_flat
                else:
                    update = velocity
            else:
                update = grad_flat
            np.multiply(update, lr, out=self._step_flat)
            np.subtract(arena, self._step_flat, out=arena)
            return
        # Per-parameter fallback (some gradients missing, mixed dtypes, a
        # repeated parameter or a retired arena); operates on the same state buffers/views as the flat path.
        nesterov = self.nesterov
        for i, p in enumerate(self.parameters):
            grad = p.grad
            if grad is None:
                continue
            step_buf = self._step_buf[i]
            if weight_decay:
                decayed = self._decayed[i]
                np.multiply(p.data, weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            if momentum:
                velocity = self._velocity[i]
                velocity *= momentum
                velocity += grad
                if nesterov:
                    np.multiply(velocity, momentum, out=step_buf)
                    step_buf += grad
                    update = step_buf
                else:
                    update = velocity
            else:
                update = grad
            np.multiply(update, lr, out=step_buf)
            np.subtract(p.data, step_buf, out=p.data)


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
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._scratch: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._decayed: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._m_flat: Optional[np.ndarray] = None
        self._v_flat: Optional[np.ndarray] = None
        self._scratch_flat: Optional[np.ndarray] = None
        self._decayed_flat: Optional[np.ndarray] = None
        self._materialized = False
        self._t = 0

    def _materialize(self) -> None:
        self._materialized = True
        if self._flat_ok:
            self._m_flat, self._m = self._alloc_flat(fill=0.0)
            self._v_flat, self._v = self._alloc_flat(fill=0.0)
            self._scratch_flat, self._scratch = self._alloc_flat()
            if self.weight_decay:
                self._decayed_flat, self._decayed = self._alloc_flat()
        else:
            self._m = [np.zeros_like(p.data) for p in self.parameters]
            self._v = [np.zeros_like(p.data) for p in self.parameters]
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
            if self.weight_decay:
                self._decayed = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        if not self._materialized:
            self._materialize()
        self._t += 1
        beta1, beta2 = self.beta1, self.beta2
        one_minus_beta1 = 1.0 - beta1
        one_minus_beta2 = 1.0 - beta2
        bias1 = 1.0 - beta1 ** self._t
        bias2 = 1.0 - beta2 ** self._t
        weight_decay = self.weight_decay
        eps = self.eps
        lr_over_bias1 = self.lr / bias1
        self._sync_arena()
        grad_flat = self._gather_grads()
        if grad_flat is not None:
            # Fused flat path: 13 whole-buffer ufunc calls (15 with decay).
            arena = self._arena
            if weight_decay:
                np.multiply(arena, weight_decay, out=self._decayed_flat)
                self._decayed_flat += grad_flat
                grad_flat = self._decayed_flat
            m, v, scratch = self._m_flat, self._v_flat, self._scratch_flat
            np.multiply(grad_flat, one_minus_beta1, out=scratch)
            m *= beta1
            m += scratch
            np.multiply(grad_flat, grad_flat, out=scratch)
            scratch *= one_minus_beta2
            v *= beta2
            v += scratch
            # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            np.divide(m, scratch, out=scratch)
            scratch *= lr_over_bias1
            np.subtract(arena, scratch, out=arena)
            return
        # Per-parameter fallback on the same state buffers/views.
        for i, p in enumerate(self.parameters):
            grad = p.grad
            if grad is None:
                continue
            scratch = self._scratch[i]
            if weight_decay:
                decayed = self._decayed[i]
                np.multiply(p.data, weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            m, v = self._m[i], self._v[i]
            np.multiply(grad, one_minus_beta1, out=scratch)
            m *= beta1
            m += scratch
            np.multiply(grad, grad, out=scratch)
            scratch *= one_minus_beta2
            v *= beta2
            v += scratch
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += eps
            np.divide(m, scratch, out=scratch)
            scratch *= lr_over_bias1
            np.subtract(p.data, scratch, out=p.data)
