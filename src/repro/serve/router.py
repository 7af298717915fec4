"""The fleet front end: route ``model@version`` traffic across replicas.

A :class:`Router` owns a table of replica HTTP endpoints (worker processes
spawned by :class:`~repro.serve.fleet.ServingFleet`, or any server speaking
the ``repro.serve`` HTTP protocol) and presents the *same* client surface
as an in-process :class:`~repro.serve.Server` — ``predict`` / ``health`` /
``models`` / ``stats`` / ``describe`` — so the public HTTP endpoint is
identical whether one process or a fleet answers, and
:func:`~repro.serve.http.make_http_server` serves either.

Routing semantics:

* **Partitioning.** Each replica declares the model *names* it serves (its
  shard manifest, refreshed from ``/healthz`` probes).  Replicas declaring
  the same name are **replicas** of it (load-balanced); disjoint names are
  **shards** (partitioning the ``model@version`` space across processes).
* **Balancing.** Among the healthy, admitted owners of a name the router
  picks the replica with the fewest outstanding requests, breaking ties
  round-robin — least-loaded first, and fair under uniform load.
* **Health.** A background monitor probes every replica's ``/healthz`` on
  an interval; :data:`FAIL_THRESHOLD` consecutive misses mark it down (and a
  connection-level failure on the request path marks it down immediately —
  death is detected at the first broken request, not the next probe).
  Probes also refresh each replica's served-model manifest and queue
  depth, so balancing decisions track reality.  Down replicas are
  re-admitted by the first successful probe after they return.
* **Retries.**  What a replica's error status means — re-raise it here, or
  try another replica — is one row of the serving error protocol,
  :data:`repro.serve.http.ERROR_TABLE`, the table the HTTP handler answers
  from.  Serving a prediction is pure — same rows, same weights, same
  bits — so retrying is always safe; deterministic *client* failures
  (a bad request, an expired deadline) are not retried, since they would
  fail identically anywhere.  A not-found is retried on the remaining
  owners only (mid-swap, another replica may already hold the requested
  version) and surfaces once every owner has answered it.  A transport
  failure (the replica died mid-request) marks the replica down and is
  retried elsewhere.  Attempts are bounded (``max_attempts``) and spaced by
  exponential backoff; the router sleeps only *between* attempts, never
  after the last one.  When every attempt failed the router raises
  :class:`NoHealthyReplica` — or, if the last replica shed the request
  (admission control), the retryable ``Overloaded``.
* **Deadlines.** Every retry sleep is capped at the request's remaining
  ``deadline_ms``, and an attempt whose deadline is already spent fails
  fast with ``DeadlineExceeded`` — backoff never burns a deadline the
  client already paid for.  A 200 that arrives past the deadline is
  suppressed (counted as ``late_responses``) and surfaces as the honest
  ``DeadlineExceeded``: no request ever completes successfully after its
  own deadline.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .batching import BatcherStats, DeadlineExceeded, Overloaded, ShuttingDown
from .http import status_row
from .registry import ModelNotFound, parse_reference

__all__ = ["NoHealthyReplica", "ReplicaHandle", "Router", "RouterConfig"]


#: consecutive probe failures before a replica is marked down
FAIL_THRESHOLD = 2


class NoHealthyReplica(RuntimeError):
    """Every routing attempt failed — no replica could answer the request."""


@dataclass
class RouterConfig:
    """Knobs of the routing front end."""

    #: seconds between health-probe sweeps of the replica table
    health_interval: float = 0.5
    #: socket timeout of one health probe
    probe_timeout: float = 2.0
    #: socket timeout of one forwarded /predict call
    request_timeout: float = 60.0
    #: total routing attempts for one request (across replicas and backoffs)
    max_attempts: int = 10
    #: initial retry backoff; doubles per attempt up to the cap.  Bounded:
    #: a request never waits longer than the cap between attempts, and
    #: never retries more than ``max_attempts`` times.
    retry_backoff_ms: float = 20.0
    retry_backoff_cap_ms: float = 400.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


class ReplicaHandle:
    """One replica endpoint plus the router's live view of it.

    Mutable state (``healthy``, ``draining``, ``outstanding``, the served
    model manifest) is guarded by the owning router's lock.
    """

    def __init__(self, replica_id: str, host: str, port: int,
                 models: Optional[Iterable[str]] = None):
        self.id = replica_id
        self.host = host
        self.port = port
        #: model *names* this replica serves (its shard); ``None`` means
        #: unknown-yet — the replica is a candidate for every name until a
        #: health probe reports its manifest
        self.names: Optional[Set[str]] = (
            {parse_reference(m)[0] for m in models} if models is not None
            else None)
        #: full ``name@version`` strings from the last health probe
        self.versions: Set[str] = set()
        self.healthy = True
        self.draining = False
        self.outstanding = 0
        self.queue_depth = 0
        self.consecutive_failures = 0
        # counters (monotonic; read by Router.stats())
        self.served = 0
        self.transport_failures = 0
        self.respawns = 0

    def serves(self, name: str) -> bool:
        return self.names is None or name in self.names

    def admitted(self) -> bool:
        return self.healthy and not self.draining

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                timeout: float = 60.0) -> Tuple[int, dict]:
        """One HTTP exchange with this replica over a fresh connection.

        The replica answers in HTTP/1.0 and closes the socket after every
        response, so a connection is never reused: each call opens one and
        closes it.  Raises ``OSError`` (or an ``http.client`` protocol
        error) on any transport-level failure — the signal the router
        retries on.
        """
        connection = http.client.HTTPConnection(self.host, self.port,
                                                 timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        finally:
            connection.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": raw.decode("utf-8", "replace")}
        return status, payload

    def describe(self) -> dict:
        return {"address": f"{self.host}:{self.port}",
                "healthy": self.healthy, "draining": self.draining,
                "outstanding": self.outstanding,
                "queue_depth": self.queue_depth,
                "models": sorted(self.versions),
                "served": self.served,
                "transport_failures": self.transport_failures,
                "respawns": self.respawns}


class Router:
    """Load-balance ``model@version`` requests across replica endpoints.

    Presents the same Python surface as :class:`~repro.serve.Server`
    (``predict``/``health``/``models``/``stats``/``describe``), so the
    stock HTTP handler serves a fleet unchanged.  See the module docstring
    for routing, health, and retry semantics.
    """

    def __init__(self, config: Optional[RouterConfig] = None,
                 on_replica_down: Optional[Callable[[str], None]] = None):
        self.config = config or RouterConfig()
        #: called (with the replica id) when a replica transitions to down —
        #: the fleet hooks its respawn path here
        self.on_replica_down = on_replica_down
        self._replicas: Dict[str, ReplicaHandle] = {}
        self._lock = threading.Lock()
        self._rr: Dict[str, int] = {}
        self._counters = {"requests": 0, "retries": 0, "failovers": 0,
                          "late_responses": 0}
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Replica table
    # ------------------------------------------------------------------ #
    def add_replica(self, replica_id: str, host: str, port: int,
                    models: Optional[Iterable[str]] = None) -> ReplicaHandle:
        """Register a replica endpoint (optionally with its shard manifest).

        Without ``models`` the replica is a candidate for every model name
        until its first health probe reports what it actually serves.
        Re-adding an existing id (a respawn that moved ports) replaces the
        handle but keeps its monotonic counters.
        """
        handle = ReplicaHandle(replica_id, host, port, models=models)
        with self._lock:
            previous = self._replicas.get(replica_id)
            if previous is not None:
                handle.served = previous.served
                handle.transport_failures = previous.transport_failures
                handle.respawns = previous.respawns
            self._replicas[replica_id] = handle
        return handle

    def replica(self, replica_id: str) -> ReplicaHandle:
        with self._lock:
            return self._replicas[replica_id]

    def replica_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._replicas)

    def set_draining(self, replica_id: str, draining: bool) -> None:
        """Stop (or resume) routing *new* requests to one replica.

        In-flight requests finish where they are; ``outstanding_of`` tells
        a rolling swap when the drained replica has gone quiet.
        """
        with self._lock:
            self._replicas[replica_id].draining = bool(draining)

    def note_respawn(self, replica_id: str) -> None:
        with self._lock:
            self._replicas[replica_id].respawns += 1

    def outstanding_of(self, replica_id: str) -> int:
        with self._lock:
            return self._replicas[replica_id].outstanding

    # ------------------------------------------------------------------ #
    # Balancing and the request path
    # ------------------------------------------------------------------ #
    def _pick(self, name: str,
              exclude: Set[str]) -> Optional[ReplicaHandle]:
        """Least-outstanding admitted owner of ``name``; round-robin ties."""
        with self._lock:
            owners = [handle for handle in self._replicas.values()
                      if handle.admitted() and handle.serves(name)
                      and handle.id not in exclude]
            if not owners:
                return None
            least = min(handle.outstanding for handle in owners)
            ties = [handle for handle in owners
                    if handle.outstanding == least]
            ties.sort(key=lambda handle: handle.id)
            self._rr[name] = self._rr.get(name, -1) + 1
            choice = ties[self._rr[name] % len(ties)]
            choice.outstanding += 1
            return choice

    def _release(self, handle: ReplicaHandle) -> None:
        with self._lock:
            handle.outstanding -= 1

    def _name_is_known(self, name: str) -> bool:
        with self._lock:
            return any(handle.serves(name)
                       for handle in self._replicas.values())

    def _note_transport_failure(self, handle: ReplicaHandle) -> None:
        """A broken connection means the process is (almost certainly)
        gone: mark it down *now* instead of waiting out ``FAIL_THRESHOLD``
        probes, and let the fleet's respawn path decide what happened."""
        fire = False
        with self._lock:
            handle.transport_failures += 1
            handle.consecutive_failures += 1
            if handle.healthy:
                handle.healthy = False
                fire = True
        if fire and self.on_replica_down is not None:
            self.on_replica_down(handle.id)

    def predict(self, inputs: np.ndarray, model: str = "default",
                return_probabilities: bool = False,
                timeout: Optional[float] = None, priority: int = 0,
                deadline_ms: Optional[float] = None) -> dict:
        """Route one prediction to the fleet; same contract as
        :meth:`repro.serve.Server.predict`.

        Retries transport failures on other replicas with bounded backoff;
        raises the same typed errors an in-process server would (read from
        a replica's status through the serving error protocol), so the
        HTTP handler answers them unchanged, plus :class:`NoHealthyReplica`
        when no attempt succeeded.
        """
        if self._closed:
            raise ShuttingDown("Router is closed")
        name, _ = parse_reference(str(model))
        array = np.asarray(inputs, dtype=np.float64)
        payload = {"model": str(model), "inputs": array.tolist(),
                   "return_probabilities": bool(return_probabilities),
                   "priority": int(priority)}
        started = time.perf_counter()
        # Routing time is part of the latency the client asked us to
        # bound: backoff and every forward are charged against the deadline.
        deadline_at = (None if deadline_ms is None
                       else started + float(deadline_ms) / 1000.0)
        request_timeout = (timeout if timeout is not None
                           else self.config.request_timeout)
        with self._lock:
            self._counters["requests"] += 1

        backoff = self.config.retry_backoff_ms / 1000.0
        pause = 0.0     # the backoff owed before the next attempt
        exclude: Set[str] = set()
        not_found: Optional[ModelNotFound] = None
        last_error: Optional[BaseException] = None
        for attempt in range(self.config.max_attempts):
            if pause:
                # Between attempts only, and never past the deadline.
                if deadline_at is not None:
                    pause = min(pause,
                                max(0.0, deadline_at - time.perf_counter()))
                time.sleep(pause)
                backoff = min(backoff * 2,
                              self.config.retry_backoff_cap_ms / 1000.0)
                pause = 0.0
            if deadline_at is not None:
                remaining_ms = (deadline_at - time.perf_counter()) * 1000.0
                if remaining_ms <= 0:
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    raise DeadlineExceeded(
                        f"request deadline exceeded after {elapsed_ms:.1f} ms "
                        f"of routing")
                payload["deadline_ms"] = remaining_ms
            if attempt > 0:
                with self._lock:
                    self._counters["retries"] += 1
            handle = self._pick(name, exclude)
            if handle is None:
                if exclude:
                    # Every current owner was tried.  All answered 404 ->
                    # the reference genuinely does not resolve anywhere;
                    # otherwise widen back out (a down replica may have
                    # respawned, a draining one been re-admitted).
                    if not_found is not None and last_error is None:
                        raise not_found
                    exclude.clear()
                elif self._replicas and not self._name_is_known(name):
                    raise ModelNotFound(
                        f"no replica serves model {name!r}; fleet serves: "
                        f"{sorted(set().union(*(h.names or set() for h in self._replicas.values())))}")
                pause = backoff
                continue
            try:
                status, body = handle.request(
                    "POST", "/predict",
                    body=json.dumps(payload).encode("utf-8"),
                    timeout=request_timeout)
            except (OSError, http.client.HTTPException) as error:
                self._release(handle)
                self._note_transport_failure(handle)
                with self._lock:
                    self._counters["failovers"] += 1
                exclude.add(handle.id)
                last_error = error
                pause = backoff
                continue
            self._release(handle)
            if status == 200:
                late_ms = (0.0 if deadline_at is None
                           else (time.perf_counter() - deadline_at) * 1000.0)
                if late_ms > 0:
                    # The replica answered, but past the client's deadline
                    # (slow transit, a forward that barely missed).  A
                    # request must never complete successfully after its
                    # own deadline, so the late response is suppressed and
                    # the honest 504 surfaces instead.
                    with self._lock:
                        self._counters["late_responses"] += 1
                    raise DeadlineExceeded(
                        f"replica answered {late_ms:.1f} ms past the "
                        f"{float(deadline_ms):.1f} ms deadline; late "
                        f"response suppressed")
                with self._lock:
                    handle.served += 1
                return body
            row = status_row(status)
            error = row.error(body.get("error",
                                       f"replica answered HTTP {status}"))
            if not row.retry:
                raise error
            exclude.add(handle.id)
            if isinstance(error, ModelNotFound):
                # Mid-swap, another owner may already hold this version:
                # try the untried owners at once.
                not_found = error
                continue
            last_error = error
            pause = backoff
        if isinstance(last_error, Overloaded):
            # Every attempt was shed by admission control: the whole fleet
            # is saturated.  Surface the retryable 429, not a routing error.
            raise last_error
        raise NoHealthyReplica(
            f"no replica could answer for {model!r} after "
            f"{self.config.max_attempts} attempts; last error: {last_error}"
        ) from last_error

    # ------------------------------------------------------------------ #
    # Health monitoring
    # ------------------------------------------------------------------ #
    def probe(self, replica_id: str) -> bool:
        """One health probe; updates the handle's manifest and liveness."""
        with self._lock:
            handle = self._replicas.get(replica_id)
        if handle is None:
            return False
        try:
            status, payload = handle.request(
                "GET", "/healthz", timeout=self.config.probe_timeout)
        except (OSError, http.client.HTTPException):
            status, payload = 0, {}
        fire = False
        with self._lock:
            if status == 200:
                handle.consecutive_failures = 0
                handle.healthy = True
                models = payload.get("models")
                if isinstance(models, list):
                    handle.versions = set(models)
                    handle.names = {parse_reference(m)[0] for m in models}
                handle.queue_depth = int(payload.get("queue_depth", 0) or 0)
                # a replica can also *self*-report draining (direct
                # /admin/drain) — honor it without clobbering router-side
                # drains, which set the flag on the handle itself
                if payload.get("draining"):
                    handle.draining = True
            else:
                handle.consecutive_failures += 1
                if (handle.healthy and handle.consecutive_failures
                        >= FAIL_THRESHOLD):
                    handle.healthy = False
                    fire = True
        if fire and self.on_replica_down is not None:
            self.on_replica_down(replica_id)
        return status == 200

    def probe_all(self) -> Dict[str, bool]:
        return {replica_id: self.probe(replica_id)
                for replica_id in self.replica_ids()}

    def start_health_monitor(self) -> None:
        """Start the background probe loop (idempotent)."""
        if self._monitor is not None and self._monitor.is_alive():
            return
        self._stop.clear()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         daemon=True,
                                         name="repro-serve-router-health")
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval):
            self.probe_all()

    def wait_healthy(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` replicas are healthy (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.probe_all()
            with self._lock:
                healthy = sum(1 for handle in self._replicas.values()
                              if handle.healthy)
            if healthy >= count:
                return True
            time.sleep(0.05)
        return False

    # ------------------------------------------------------------------ #
    # Aggregation (the fleet-wide /models, /stats, /healthz, /describe)
    # ------------------------------------------------------------------ #
    def _handles(self) -> List[ReplicaHandle]:
        with self._lock:
            return list(self._replicas.values())

    def _gather(self, path: str) -> List[Tuple[ReplicaHandle, dict]]:
        """``GET path`` from every replica; the dict replies of those that
        answer 200 (transport errors and other replies are skipped)."""
        replies: List[Tuple[ReplicaHandle, dict]] = []
        for handle in self._handles():
            try:
                status, payload = handle.request(
                    "GET", path, timeout=self.config.probe_timeout)
            except (OSError, http.client.HTTPException):
                continue
            if status == 200 and isinstance(payload, dict):
                replies.append((handle, payload))
        return replies

    def health(self) -> dict:
        """Fleet-wide health: per-replica states plus the merged manifest."""
        handles = self._handles()
        healthy = sum(1 for handle in handles if handle.healthy)
        if self._closed:
            status = "closed"
        elif healthy == len(handles) and handles:
            status = "ok"
        elif healthy:
            status = "degraded"
        else:
            status = "down"
        models: Set[str] = set()
        for handle in handles:
            models |= handle.versions
        with self._lock:
            replicas = {handle.id: handle.describe() for handle in handles}
        return {"status": status,
                "draining": all(handle.draining for handle in handles)
                if handles else False,
                "queue_depth": sum(handle.queue_depth for handle in handles),
                "replicas": replicas,
                "models": sorted(models)}

    def models(self) -> Dict[str, dict]:
        """The merged registry listing across every reachable replica."""
        merged: Dict[str, dict] = {}
        for _, payload in self._gather("/models"):
            for name, entry in payload.items():
                into = merged.setdefault(name, {"latest": entry.get("latest"),
                                                "versions": {}})
                into["versions"].update(entry.get("versions", {}))
                if entry.get("latest"):
                    into["latest"] = entry["latest"]
        return merged

    def stats(self) -> Dict[str, dict]:
        """Fleet-wide counters: per-``model@version`` merges across replicas
        plus a ``_router`` entry (routing counters and per-replica state).

        Each replica's counters are read back into a :class:`BatcherStats`
        and merged with :meth:`BatcherStats.add`, as :meth:`Server.stats`
        merges retired batchers, so the fleet's ``mean_batch_size`` is the
        exact ``batched_examples / batches``.
        """
        merged: Dict[str, BatcherStats] = {}
        for _, payload in self._gather("/stats"):
            for key, entry in payload.items():
                if isinstance(entry, dict):
                    merged.setdefault(key, BatcherStats()).add(
                        BatcherStats.from_dict(entry))
        stats = {key: counters.as_dict() for key, counters in merged.items()}
        with self._lock:
            counters = dict(self._counters)
        counters["replicas"] = {handle.id: handle.describe()
                                for handle in self._handles()}
        stats["_router"] = counters
        return stats

    def capacity(self) -> dict:
        """Fleet-wide ``GET /capacity``: per-replica payloads plus totals.

        Sums replica capacity (req/s), queue depth, and admission counters
        across every replica that answers — the number a capacity planner
        compares against fleet-level arrival rate.  Replicas without a
        capacity model report ``model: null`` and contribute nothing to
        the fleet capacity sum.
        """
        replicas: Dict[str, dict] = {}
        total_capacity = 0.0
        modeled = 0
        queue_depth = 0
        admitted = shed = 0
        for handle, payload in self._gather("/capacity"):
            replicas[handle.id] = payload
            queue_depth += int(payload.get("queue_depth", 0) or 0)
            if payload.get("capacity_req_per_sec") is not None:
                total_capacity += float(payload["capacity_req_per_sec"])
                modeled += 1
            admission = payload.get("admission")
            if isinstance(admission, dict):
                admitted += int(admission.get("admitted", 0) or 0)
                shed += int(admission.get("shed", 0) or 0)
        return {
            "queue_depth": queue_depth,
            "capacity_req_per_sec": round(total_capacity, 1) if modeled else None,
            "modeled_replicas": modeled,
            "admission": {"admitted": admitted, "shed": shed},
            "replicas": replicas,
        }

    def describe(self) -> dict:
        return {"models": self.models(),
                "router": {
                    "replicas": {handle.id: handle.describe()
                                 for handle in self._handles()},
                    "health_interval": self.config.health_interval,
                    "fail_threshold": FAIL_THRESHOLD,
                    "max_attempts": self.config.max_attempts,
                },
                "stats": self.stats()}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._closed = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
