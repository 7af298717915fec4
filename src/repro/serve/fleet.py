"""Multi-process serving: a fleet of worker processes behind one router.

In-process scaling of the serving path is GIL-bound (a second drain thread
per batcher bought ~1.06x and was removed); the next order of magnitude is
process-level.  A :class:`ServingFleet` spawns N **worker
processes** via :mod:`multiprocessing`, each a full
:class:`~repro.serve.Server` — its own registry shard (or model replica),
micro-batchers, and HTTP endpoint — and fronts them with a
:class:`~repro.serve.router.Router` so the client API stays exactly one
port speaking ``/predict`` / ``/models`` / ``/stats`` / ``/healthz``.

**Socket activation.**  The parent binds each replica's listening socket
up front, keeps its copy, and hands a duplicate to every (re)spawned
worker, which adopts it (``make_http_server(..., sock=...)``).  The
address therefore survives worker death: connections parked in the listen
backlog while a replica is down are answered by its replacement, and the
router's table never has to chase moving ports.

**Supervision.**  All replacement goes through one respawn path: the
router's health monitor (plus a process-liveness sweep every
:data:`SUPERVISE_INTERVAL` seconds) reports a replica down, the supervisor
thread re-spawns it on the same socket with bounded exponential backoff,
and the first successful health probe re-admits it.

**Rolling hot-swap.**  :meth:`ServingFleet.rolling_swap` upgrades an
artifact across the fleet one replica at a time: drain (router stops
routing new work there), wait quiet, ``POST /admin/load`` the new
artifact, verify it via ``/healthz``, re-admit.  At every instant each
replica serves either the old or the new version in full — served
predictions stay bit-identical to offline inference at the serving
quantum throughout, and capacity never drops by more than one replica.

Determinism note: every worker pads every forward to the same
``max_batch_size`` quantum, so a prediction's bits do not depend on *which*
replica served it — routing, retries, and failovers are invisible in the
output, which is what makes retry-on-replica-death safe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .batching import BatchingConfig
from .router import Router, RouterConfig

__all__ = ["FleetConfig", "ReplicaSpec", "ServingFleet", "replicated_specs",
           "sharded_specs"]

#: seconds the parent waits for a spawned worker's ready signal
SPAWN_TIMEOUT = 30.0
#: seconds ``close()`` waits for terminated workers before killing them
TERMINATE_TIMEOUT = 10.0
#: seconds ``rolling_swap`` waits for a drained replica's requests to finish
QUIESCE_TIMEOUT = 30.0
#: bounded respawn backoff: ``min(initial * 2**n, cap)`` seconds, where n
#: counts the replica's respawns within the last ``RESPAWN_BACKOFF_WINDOW``
RESPAWN_BACKOFF_INITIAL = 0.05
RESPAWN_BACKOFF_CAP = 2.0
RESPAWN_BACKOFF_WINDOW = 30.0
#: how often the supervisor sweeps process liveness
SUPERVISE_INTERVAL = 0.2


@dataclass
class ReplicaSpec:
    """What one worker process serves: its shard of the model space.

    ``models`` maps served names to artifact directories (with an optional
    explicit version).  Replicas with identical manifests are replicas of
    each other (load-balanced); disjoint manifests shard the
    ``model@version`` space across processes.  Must stay picklable — it
    crosses the process boundary at spawn.
    """

    replica_id: str
    #: (name, artifact_path, version-or-None) per served model
    models: Tuple[Tuple[str, str, Optional[str]], ...] = ()

    def names(self) -> List[str]:
        return [name for name, _, _ in self.models]


def replicated_specs(models: Sequence[Tuple[str, str]],
                     replicas: int) -> List[ReplicaSpec]:
    """N replicas each serving every model — pure horizontal replication."""
    manifest = tuple((name, path, None) for name, path in models)
    return [ReplicaSpec(replica_id=f"replica-{i}", models=manifest)
            for i in range(replicas)]


def sharded_specs(models: Sequence[Tuple[str, str]],
                  shards: int) -> List[ReplicaSpec]:
    """Partition models round-robin across ``shards`` worker processes."""
    groups: List[List[Tuple[str, str, Optional[str]]]] = [
        [] for _ in range(shards)]
    for index, (name, path) in enumerate(models):
        groups[index % shards].append((name, path, None))
    return [ReplicaSpec(replica_id=f"shard-{i}", models=tuple(group))
            for i, group in enumerate(groups)]


@dataclass
class FleetConfig:
    """Knobs of the worker fleet."""

    #: per-worker batching knobs (each process runs its own batchers)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    host: str = "127.0.0.1"


def _worker_main(spec: ReplicaSpec, batching: BatchingConfig,
                 sock: socket.socket, ready) -> None:
    """Entry point of one worker process (top level: spawn-picklable).

    Builds a full in-process server over the spec's artifacts, adopts the
    inherited listening socket, signals readiness, and serves until
    killed.  SIGTERM shuts down without draining — queued requests fail
    fast with ``ShuttingDown`` (HTTP 503) and the router fails them over
    to a sibling replica, so a terminated worker never hangs a client.
    """
    # Imported here so the module stays importable without triggering the
    # whole serve stack at fleet-definition time in the parent.
    from .http import make_http_server
    from .server import Server

    server = Server(batching=batching)
    for name, path, version in spec.models:
        server.load(name, path, version=version)
    httpd = make_http_server(server, sock=sock, admin=True)

    def _terminate(signum, frame):  # noqa: ARG001 (signal API)
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _terminate)
    if ready is not None:
        ready.send({"pid": os.getpid(), "replica_id": spec.replica_id,
                    "models": server.registry.manifest()})
        ready.close()
    try:
        httpd.serve_forever()
    finally:
        httpd.stop()
        server.close(drain=False)


class _Replica:
    """Parent-side runtime record of one worker process."""

    def __init__(self, spec: ReplicaSpec, sock: socket.socket):
        self.spec = spec
        self.sock = sock
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.respawn_times: List[float] = []

    @property
    def port(self) -> int:
        return self.sock.getsockname()[1]

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingFleet:
    """Spawn, route to, heal, and hot-swap a fleet of serving processes.

    Usable as a context manager.  ``fleet.router`` is the single front
    end — hand it to :func:`~repro.serve.http.make_http_server` to expose
    the whole fleet on one port with the unchanged client API.
    """

    def __init__(self, specs: Sequence[ReplicaSpec],
                 config: Optional[FleetConfig] = None):
        if not specs:
            raise ValueError("a fleet needs at least one replica spec")
        ids = [spec.replica_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate replica ids in {ids}")
        self.config = config or FleetConfig()
        # Spawned workers get a clean interpreter — no inherited locks or
        # threads to deadlock on — at ~0.5 s startup each.
        self._ctx = multiprocessing.get_context("spawn")
        self.router = Router(config=self.config.router,
                             on_replica_down=self._on_replica_down)
        self._replicas: Dict[str, _Replica] = {}
        self._lock = threading.Lock()
        self._respawn_wanted: set = set()
        self._respawn_signal = threading.Event()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._closed = False
        for spec in specs:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.config.host, 0))
            sock.listen(128)
            self._replicas[spec.replica_id] = _Replica(spec, sock)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, wait_healthy: bool = True) -> "ServingFleet":
        """Spawn every worker, register them with the router, start the
        health monitor and the supervisor."""
        for replica in self._replicas.values():
            self._spawn(replica)
            self.router.add_replica(
                replica.spec.replica_id, self.config.host, replica.port,
                models=replica.spec.names() or None)
        if wait_healthy:
            if not self.router.wait_healthy(len(self._replicas),
                                            timeout=SPAWN_TIMEOUT):
                raise RuntimeError("fleet did not become healthy in time")
        self.router.start_health_monitor()
        self._supervisor = threading.Thread(target=self._supervise,
                                            daemon=True,
                                            name="repro-serve-fleet-supervisor")
        self._supervisor.start()
        return self

    def _spawn(self, replica: _Replica) -> None:
        """(Re)start one worker on its parent-held socket."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(replica.spec, self.config.batching, replica.sock,
                  child_conn),
            daemon=True,
            name=f"repro-serve-{replica.spec.replica_id}")
        process.start()
        child_conn.close()
        if not parent_conn.poll(SPAWN_TIMEOUT):
            process.terminate()
            raise RuntimeError(
                f"worker {replica.spec.replica_id!r} did not come up within "
                f"{SPAWN_TIMEOUT}s")
        parent_conn.recv()
        parent_conn.close()
        replica.process = process

    # ------------------------------------------------------------------ #
    # Supervision: the single replacement-respawn path
    # ------------------------------------------------------------------ #
    def _on_replica_down(self, replica_id: str) -> None:
        """Router callback — request a respawn check for one replica."""
        with self._lock:
            self._respawn_wanted.add(replica_id)
        self._respawn_signal.set()

    def _supervise(self) -> None:
        while not self._stop.is_set():
            self._respawn_signal.wait(SUPERVISE_INTERVAL)
            self._respawn_signal.clear()
            if self._stop.is_set():
                return
            with self._lock:
                wanted = set(self._respawn_wanted)
                self._respawn_wanted.clear()
            # Liveness sweep: a worker can die without an in-flight request
            # noticing (idle replica, SIGKILL) — catch it here.
            for replica_id, replica in list(self._replicas.items()):
                if not replica.alive() or replica_id in wanted:
                    self._maybe_respawn(replica_id)

    def _maybe_respawn(self, replica_id: str) -> None:
        """Respawn one replica if its process is actually gone.

        Every replacement in the fleet goes through here — spawned on the
        *same* parent-held socket, with exponential backoff bounded by
        :data:`RESPAWN_BACKOFF_CAP` over the recent-respawn window, so a
        crash-looping artifact cannot melt the host.
        """
        if self._closed:
            return
        replica = self._replicas.get(replica_id)
        if replica is None or replica.alive():
            return  # a transient connection failure, not a death
        now = time.monotonic()
        replica.respawn_times = [t for t in replica.respawn_times
                                 if now - t < RESPAWN_BACKOFF_WINDOW]
        recent = len(replica.respawn_times)
        delay = min(RESPAWN_BACKOFF_INITIAL * (2 ** recent),
                    RESPAWN_BACKOFF_CAP)
        if self._stop.wait(delay):
            return
        if replica.process is not None:
            replica.process.join(timeout=1.0)
        try:
            self._spawn(replica)
        except RuntimeError:
            # Try again on the next supervision sweep, with more backoff.
            replica.respawn_times.append(time.monotonic())
            self._on_replica_down(replica_id)
            return
        replica.respawn_times.append(time.monotonic())
        self.router.note_respawn(replica_id)
        self.router.probe(replica_id)   # re-admit as soon as it answers

    def kill_replica(self, replica_id: str) -> None:
        """Hard-kill one worker process (chaos testing; SIGKILL, no drain).

        The supervisor notices and respawns it on the same socket; the
        router retries any in-flight requests onto surviving replicas.
        """
        process = self._replicas[replica_id].process
        if process is not None:
            process.kill()

    # ------------------------------------------------------------------ #
    # Rolling hot-swap
    # ------------------------------------------------------------------ #
    def rolling_swap(self, name: str, path: str,
                     version: Optional[str] = None) -> Dict[str, str]:
        """Upgrade ``name`` to the artifact at ``path`` across the fleet.

        One replica at a time: drain -> wait quiet -> ``/admin/load`` ->
        verify via ``/healthz`` -> re-admit.  Served predictions stay
        bit-identical to offline inference throughout — every response
        comes from a replica holding either the old or the new artifact in
        full, never a mix — and capacity never drops by more than one
        replica.  Returns ``{replica_id: new_version}``.
        """
        results: Dict[str, str] = {}
        for replica_id in self.router.replica_ids():
            replica = self._replicas.get(replica_id)
            if replica is None:
                continue
            handle = self.router.replica(replica_id)
            if not handle.serves(name):
                continue    # another shard's model
            self.router.set_draining(replica_id, True)
            try:
                deadline = time.monotonic() + QUIESCE_TIMEOUT
                while self.router.outstanding_of(replica_id) > 0:
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"replica {replica_id!r} did not quiesce within "
                            f"{QUIESCE_TIMEOUT}s")
                    time.sleep(0.005)
                status, payload = handle.request(
                    "POST", "/admin/load",
                    body=json.dumps(
                        {"name": name, "path": path,
                         "version": version}).encode("utf-8"),
                    timeout=self.config.router.request_timeout)
                if status != 200:
                    raise RuntimeError(
                        f"hot swap on {replica_id!r} failed: "
                        f"{payload.get('error', status)}")
                new_version = str(payload["version"])
                # Verify before re-admitting: the swapped artifact must
                # actually be registered (and be latest) on this replica.
                if not self.router.probe(replica_id) or \
                        f"{name}@{new_version}" not in handle.versions:
                    raise RuntimeError(
                        f"replica {replica_id!r} does not report "
                        f"{name}@{new_version} after the swap")
                results[replica_id] = new_version
            finally:
                self.router.set_draining(replica_id, False)
        return results

    # ------------------------------------------------------------------ #
    # Introspection and teardown
    # ------------------------------------------------------------------ #
    def replica_ids(self) -> List[str]:
        return sorted(self._replicas)

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        return {replica_id: (self.config.host, replica.port)
                for replica_id, replica in self._replicas.items()}

    def processes_alive(self) -> Dict[str, bool]:
        return {replica_id: replica.alive()
                for replica_id, replica in self._replicas.items()}

    def health(self) -> dict:
        return self.router.health()

    def stats(self) -> Dict[str, dict]:
        return self.router.stats()

    def close(self) -> None:
        """Stop supervision, terminate every worker, release the sockets."""
        self._closed = True
        self._stop.set()
        self._respawn_signal.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        self.router.close()
        for replica in self._replicas.values():
            if replica.process is not None and replica.process.is_alive():
                replica.process.terminate()
        deadline = time.monotonic() + TERMINATE_TIMEOUT
        for replica in self._replicas.values():
            if replica.process is not None:
                replica.process.join(
                    timeout=max(0.0, deadline - time.monotonic()))
                if replica.process.is_alive():
                    replica.process.kill()
                    replica.process.join(timeout=1.0)
        for replica in self._replicas.values():
            replica.sock.close()

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
