"""Optimizers used to train modules, baselines, backbones, and the end model.

The paper's training recipes (Appendix A.3) use SGD with momentum (plain and
Nesterov) and Adam; both are implemented here against the
:class:`repro.nn.Parameter` abstraction.

Both optimizers keep every parameter, gradient and state buffer in one
contiguous array of the parameters' dtype, with a view per parameter, and
run their elementwise update as a handful of ufunc calls over the whole
array instead of ``O(kernels × params)`` dispatches.  At construction the
optimizer copies every parameter into its *arena* and rebinds each
``p.data`` to its view; everything else keeps reading ``p.data`` live.  The
graph replay executor (:mod:`repro.nn.replay`) writes gradients straight
into the flat gradient views (:meth:`Optimizer.grad_view_for`), so the
gather before an update is a no-op on the replay fast path.

The arena is the only update path.  Parameters that mix dtypes, or one
listed twice, are refused with ``ValueError``.  Each step rebinds a
``p.data`` that no longer is its view (``load_state_dict``, another
optimizer's arena) after copying it back in, and raises if it no longer
fits its slot.  A step on which some parameters have no gradient runs the
same update once per maximal run of consecutive covered slots, so the
others and their state do not advance; elementwise ops over disjoint
slices give the bytes of a per-parameter loop
(``tests/nn/test_optim_arena.py``).
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
        if len({p.data.dtype for p in self.parameters}) != 1:
            raise ValueError("optimizer parameters must share one dtype")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("optimizer received a parameter twice")
        self.lr = float(lr)
        self.initial_lr = float(lr)
        #: slot ``i`` of every flat buffer is ``[offsets[i], offsets[i + 1])``
        self._offsets = np.cumsum(
            [0] + [p.data.size for p in self.parameters]).tolist()
        self._flat_grad, self._flat_grad_views = self._alloc_flat()
        self._arena, self._arena_views = self._alloc_flat()
        for p, view in zip(self.parameters, self._arena_views):
            np.copyto(view, p.data)
            p.data = view
        #: the update rule's flat state buffers (None where unused), built
        #: on the first step by :meth:`_materialize`
        self._state: Optional[List[Optional[np.ndarray]]] = None
        #: steps past the arena check (Adam's bias correction reads it)
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply the update rule once per maximal run of consecutive arena
        slots whose parameter has a gradient (the whole arena when every
        parameter has one)."""
        if self._state is None:
            self._state = self._materialize()
        self._sync_arena()
        self._t += 1
        for start, stop in self._gather_grads():
            self._update(self._arena[start:stop],
                         self._flat_grad[start:stop],
                         *[None if flat is None else flat[start:stop]
                           for flat in self._state])

    def _materialize(self) -> List[Optional[np.ndarray]]:  # pragma: no cover
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
    def _alloc_flat(self):
        """One uninitialized flat array covering all parameters, and its
        per-parameter views."""
        flat = np.empty(self._offsets[-1], dtype=self.parameters[0].data.dtype)
        return flat, [flat[start:stop].reshape(p.data.shape)
                      for p, start, stop in zip(self.parameters,
                                                self._offsets,
                                                self._offsets[1:])]

    def _buffer(self, zero: bool = False) -> np.ndarray:
        """One flat state buffer, zero-filled or uninitialized."""
        make = np.zeros if zero else np.empty
        return make(self._arena.size, dtype=self._arena.dtype)

    def _decay_buffer(self) -> Optional[np.ndarray]:
        """The weight-decayed gradient's buffer (None without decay)."""
        return self._buffer() if self.weight_decay else None

    def grad_view_for(self, param: Parameter) -> np.ndarray:
        """The flat-gradient view backing ``param``.

        The replay executor computes gradients straight into these views so
        the flat update needs no gather copy.  Callers that bind the view to
        ``param.grad`` get bit-identical behavior either way — the gather in
        :meth:`_gather_grads` skips views that are already in place.  Raises
        ``KeyError`` for a parameter this optimizer does not hold.
        """
        for p, view in zip(self.parameters, self._flat_grad_views):
            if p is param:
                return view
        raise KeyError("the optimizer does not hold this parameter")

    def _gather_grads(self) -> List[list]:
        """Copy every ``param.grad`` into the flat buffer (no-op per view
        already written in place) and return the ``[start, stop)`` offsets
        of each maximal run of consecutive slots that have a gradient; a
        parameter without one (its state must not advance) ends a run."""
        runs, offsets = [], self._offsets
        for i, (p, view) in enumerate(zip(self.parameters,
                                          self._flat_grad_views)):
            grad = p.grad
            if grad is None:
                continue
            if grad is not view:
                np.copyto(view, grad)
            if runs and runs[-1][1] == offsets[i]:
                runs[-1][1] = offsets[i + 1]
            else:
                runs.append([offsets[i], offsets[i + 1]])
        return runs

    def _sync_arena(self) -> None:
        """Bind every ``p.data`` back to its arena view.

        A parameter whose ``data`` was rebound to an array that fits its
        slot is copied back in; one that no longer fits raises
        ``ValueError``.
        """
        for p, view in zip(self.parameters, self._arena_views):
            data = p.data
            if data is not view:
                if data.shape != view.shape or data.dtype != view.dtype:
                    raise ValueError(
                        f"a parameter was rebound to a {data.dtype} array of "
                        f"shape {data.shape}, which no longer fits its "
                        f"{view.dtype} {view.shape} optimizer slot")
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

    def _materialize(self) -> List[Optional[np.ndarray]]:
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

    def _materialize(self) -> List[Optional[np.ndarray]]:
        # The two moments, a scratch buffer, the decayed gradient.
        return [self._buffer(zero=True), self._buffer(zero=True),
                self._buffer(), self._decay_buffer()]

    def _update(self, data, grad, m, v, scratch, decayed) -> None:
        # 13 ufunc calls (15 with decay) per run of covered slots.
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
