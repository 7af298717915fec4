"""The serving front end: registry-backed, micro-batched prediction.

:class:`Server` is the Python API the HTTP endpoint and the CLI sit on top
of.  Each registered ``(name, version)`` gets its own :class:`MicroBatcher`
(created lazily, keyed by the servable's weight fingerprint so caches are
never shared across different weights); ``submit`` resolves the reference,
routes the request to that batcher, and returns a future.  Ensemble
servables route exactly like end models — ``ensemble@version`` is just
another reference.  Because requests hold the resolved servable's batcher,
repointing ``name@latest`` mid-flight swaps where *new* requests go while
old ones finish on the version they resolved — a zero-downtime hot swap.

The batcher is constructed with the servable's ``input_dim`` and ``dtype``,
so a malformed request (wrong feature width, uncastable dtype) fails alone
at ``submit`` with a ``ValueError`` instead of poisoning the batch it would
have been fused into.  Requests may carry a ``priority`` (higher drains
first) and a ``deadline_ms`` (expired requests fail fast with
:class:`~repro.serve.DeadlineExceeded` instead of occupying a forward).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .artifact import Servable, load_servable
from .batching import BatcherStats, BatchingConfig, MicroBatcher, ShuttingDown
from .registry import ModelRegistry

if TYPE_CHECKING:   # pragma: no cover - typing only, avoids a hard import
    from .capacity import AdmissionController, CapacityModel

__all__ = ["Server"]


class Server:
    """Serve registered servables with dynamic micro-batching.

    With an :class:`~repro.serve.capacity.AdmissionController` attached
    (``admission=`` or :meth:`set_admission`), every request passes the
    model-driven admission gate before it queues: a request the calibrated
    capacity model predicts cannot be answered inside its budget fails
    synchronously with :class:`~repro.serve.Overloaded` (HTTP 429,
    retryable) instead of rotting in the queue until it turns into a 504.

    Usable as a context manager; :meth:`close` drains every batcher.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None,
                 batching: Optional[BatchingConfig] = None,
                 admission: Optional["AdmissionController"] = None,
                 capacity_model: Optional["CapacityModel"] = None):
        self.registry = registry or ModelRegistry()
        self.batching = batching or BatchingConfig()
        self.admission = admission
        self.capacity_model = capacity_model or (
            admission.model if admission is not None else None)
        #: (name, version) -> (servable, its batcher); the servable is kept
        #: so a re-registered version is detected by weight fingerprint
        self._batchers: Dict[Tuple[str, str],
                             Tuple[Servable, MicroBatcher]] = {}
        #: counters of batchers retired by a hot-swap re-registration,
        #: accumulated so ``stats()`` never silently loses served traffic
        self._retired: Dict[Tuple[str, str], BatcherStats] = {}
        #: retired batchers still draining queued requests; their counters
        #: are read live by ``stats()`` and folded into ``_retired`` once
        #: their drain threads exit, so no served request is ever uncounted
        self._draining: Dict[Tuple[str, str], List[MicroBatcher]] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: advisory replica-level flag (see :meth:`set_draining`) — distinct
        #: from ``_draining``, the retired batchers still answering work
        self._drain_flag = False

    # ------------------------------------------------------------------ #
    # Model management (thin passthroughs over the registry)
    # ------------------------------------------------------------------ #
    def register(self, name: str, servable: Servable,
                 version: Optional[str] = None, make_latest: bool = True) -> str:
        return self.registry.register(name, servable, version=version,
                                      make_latest=make_latest)

    def load(self, name: str, path: str, version: Optional[str] = None,
             make_latest: bool = True) -> str:
        """Load an exported artifact directory and register it.

        The name and version are checked first, so a key the registry would
        refuse (a version the name already has included) costs no artifact
        read or digest check.
        """
        version = self.registry.check_key(name, version)
        return self.registry.register(name, load_servable(path),
                                      version=version, make_latest=make_latest)

    def _batcher_for(self, name: str, version: str,
                     servable: Servable) -> MicroBatcher:
        key = (name, version)
        stale = None
        with self._lock:
            if self._closed:
                raise ShuttingDown("Server is closed")
            entry = self._batchers.get(key)
            # A version string can be re-registered with different weights
            # (unregister + register, e.g. re-publishing a fixed model); the
            # weight fingerprint detects that and retires the stale batcher
            # so requests never hit the old model or its cache.
            if entry is not None and entry[0] is not servable \
                    and entry[0].fingerprint != servable.fingerprint:
                stale = entry[1]
                # Track the retiree while it drains: stats() keeps reading
                # its counters live, so a hot swap never shows a transient
                # dip (or permanently loses a slow final batch).
                self._draining.setdefault(key, []).append(stale)
                entry = None
            if entry is None:
                entry = (servable,
                         MicroBatcher(servable.predict_proba,
                                      config=self.batching,
                                      cache_salt=servable.fingerprint,
                                      input_dim=servable.input_dim,
                                      dtype=servable.dtype))
                self._batchers[key] = entry
        if stale is not None:
            stale.close()   # outside the lock; queued requests still answer
            with self._lock:
                self._reap_drained_locked()
        return entry[1]

    def _reap_drained_locked(self) -> None:
        """Fold finished retirees' final counters into the retired bucket
        (callers hold ``self._lock``).  A batcher still draining stays
        tracked and keeps being read live."""
        for key, batchers in list(self._draining.items()):
            still_draining = []
            for batcher in batchers:
                if batcher.is_alive():
                    still_draining.append(batcher)
                else:
                    self._retired.setdefault(key, BatcherStats()).add(
                        batcher.snapshot())
            if still_draining:
                self._draining[key] = still_draining
            else:
                del self._draining[key]

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def _route(self, inputs: np.ndarray, model: str, priority: int,
               deadline_ms: Optional[float]
               ) -> Tuple[str, str, Servable, "Future[np.ndarray]"]:
        """Resolve ``model``, pass the admission gate, and queue the request
        on the servable's batcher: ``(name, version, servable, future)``."""
        name, version, servable = self.registry.resolve(model)
        batcher = self._batcher_for(name, version, servable)
        if self.admission is not None:
            self.admission.admit(batcher.queue_depth(),
                                 deadline_ms=deadline_ms)
        future = batcher.submit(inputs, priority=priority,
                                deadline_ms=deadline_ms)
        return name, version, servable, future

    def submit(self, inputs: np.ndarray, model: str = "default",
               priority: int = 0,
               deadline_ms: Optional[float] = None) -> "Future[np.ndarray]":
        """Route one request to ``model``'s batcher; resolves to probabilities.

        ``inputs`` is one example ``(d,)`` or a block ``(n, d)``; the future
        carries the matching ``(k,)`` / ``(n, k)`` class-probability rows.
        Higher ``priority`` requests drain first; with ``deadline_ms`` the
        request fails fast with ``DeadlineExceeded`` once expired.
        """
        return self._route(inputs, model, priority, deadline_ms)[3]

    def predict(self, inputs: np.ndarray, model: str = "default",
                return_probabilities: bool = False,
                timeout: Optional[float] = None, priority: int = 0,
                deadline_ms: Optional[float] = None) -> dict:
        """Blocking prediction returning a JSON-friendly response dict."""
        array = np.asarray(inputs)
        name, version, servable, future = self._route(
            array, model, priority, deadline_ms)
        probabilities = future.result(timeout=timeout)
        rows = probabilities[None, :] if array.ndim == 1 else probabilities
        indices = rows.argmax(axis=1)
        response = {
            "model": name,
            "version": version,
            "predictions": [int(i) for i in indices],
            "labels": [servable.class_names[i] for i in indices],
        }
        if return_probabilities:
            response["probabilities"] = [[float(p) for p in row]
                                         for row in rows]
        return response

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, dict]:
        """Per-model batcher counters, including retired batchers' traffic.

        A ``(name, version)`` that was hot-swap re-registered keeps the
        counters its retired batcher accumulated (read live while it is
        still draining); the live batcher's counters are added on top.
        """
        with self._lock:
            self._reap_drained_locked()
            live = {key: entry[1] for key, entry in self._batchers.items()}
            draining = {key: list(batchers)
                        for key, batchers in self._draining.items()}
            retired = {key: stats.copy()
                       for key, stats in self._retired.items()}
        merged: Dict[str, dict] = {}
        for key in set(live) | set(draining) | set(retired):
            stats = retired.get(key, BatcherStats())
            for batcher in draining.get(key, []) + [live.get(key)]:
                if batcher is not None:
                    stats.add(batcher.snapshot())
            merged[f"{key[0]}@{key[1]}"] = stats.as_dict()
        return merged

    def models(self) -> Dict[str, dict]:
        """The registry listing (what ``GET /models`` returns)."""
        return self.registry.describe()

    def health(self) -> dict:
        """The ``GET /healthz`` payload: real routing/balancing signal.

        Beyond liveness, reports the loaded ``name@version`` list (shard
        manifest), total queued requests, and how many batchers' drain
        threads are alive out of how many exist — what a fleet router's
        health checks need to route, balance, and decide when a draining
        replica has actually gone quiet.
        """
        with self._lock:
            batchers = [entry[1] for entry in self._batchers.values()]
            batchers.extend(batcher for group in self._draining.values()
                            for batcher in group)
            closed, draining = self._closed, self._drain_flag
        queue_depth = sum(batcher.queue_depth() for batcher in batchers)
        alive = sum(batcher.is_alive() for batcher in batchers)
        status = "closed" if closed else ("draining" if draining else "ok")
        return {
            "status": status,
            "draining": draining,
            "queue_depth": queue_depth,
            "workers": {"alive": alive, "expected": len(batchers)},
            "models": self.registry.manifest(),
        }

    @property
    def draining(self) -> bool:
        return self._drain_flag

    def set_draining(self, draining: bool) -> None:
        """Flag this server as draining (reported via :meth:`health`).

        Purely advisory — requests are still accepted and answered; a fleet
        router reads the flag to stop routing *new* traffic here while a
        rolling hot-swap waits for in-flight work to finish.
        """
        with self._lock:
            self._drain_flag = bool(draining)

    def set_admission(self, admission: Optional["AdmissionController"]) -> None:
        """Attach (or detach, with ``None``) the admission gate at runtime.

        Typically called after a calibration probe: build the
        :class:`~repro.serve.capacity.CapacityModel` from the loaded
        servable, then gate the live traffic with it.
        """
        self.admission = admission
        if admission is not None:
            self.capacity_model = admission.model

    def capacity(self) -> dict:
        """The ``GET /capacity`` payload: model, admission gate, live load.

        Reports the calibrated capacity model (service law, error bounds),
        the admission controller's budget and counters, the current queue
        depth, and — when both a model and traffic exist — the predicted
        operating point at the batching config's capacity knee.  Empty
        sections are ``None`` when no model/controller is attached, so the
        endpoint is always routable and self-describing.
        """
        with self._lock:
            batchers = [entry[1] for entry in self._batchers.values()]
        queue_depth = sum(batcher.queue_depth() for batcher in batchers)
        payload: dict = {
            "queue_depth": queue_depth,
            "batching": {
                "max_batch_size": self.batching.max_batch_size,
                "max_latency_ms": self.batching.max_latency_ms,
            },
            "model": None,
            "admission": None,
        }
        if self.capacity_model is not None:
            payload["model"] = self.capacity_model.describe()
            payload["capacity_req_per_sec"] = round(
                self.capacity_model.capacity(self.batching), 1)
        if self.admission is not None:
            payload["admission"] = self.admission.describe()
            payload["admission"]["predicted_wait_ms"] = round(
                self.admission.predicted_wait_ms(queue_depth), 3)
        return payload

    def describe(self) -> dict:
        return {"models": self.registry.describe(),
                "batching": {
                    "max_batch_size": self.batching.max_batch_size,
                    "max_latency_ms": self.batching.max_latency_ms,
                    "cache_size": self.batching.cache_size,
                },
                "stats": self.stats()}

    def close(self, drain: bool = True) -> None:
        """Stop every batcher.

        With ``drain`` (the default) queued requests are still answered
        first; with ``drain=False`` they fail fast with
        :class:`~repro.serve.ShuttingDown` — either way no client is left
        hanging on a future that will never resolve.
        """
        with self._lock:
            self._closed = True
            entries = list(self._batchers.values())
            draining = [batcher for batchers in self._draining.values()
                        for batcher in batchers]
            self._batchers.clear()
        for _, batcher in entries:
            batcher.close(drain=drain)
        for batcher in draining:
            batcher.close(drain=drain)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
