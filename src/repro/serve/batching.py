"""Dynamic micro-batching: many concurrent requests, one fused forward.

The serving hot path has the same shape as the training fast path: NumPy's
per-call overhead dwarfs the arithmetic at small batch sizes, so answering
each request with its own forward wastes most of the machine.  The
:class:`MicroBatcher` instead drains a request queue on one thread into
batches bounded by ``max_batch_size`` and ``max_latency_ms``, runs *one*
forward over the concatenated rows (padded to exactly ``max_batch_size``,
so served rows are bit-identical to offline inference at that quantum),
and fans the result rows back out to per-request futures — the
batched-routing shape of distributed serving stacks, scaled to one
process.

Traffic shaping: requests carry an optional **priority** (higher drains
first; FIFO within a level) and an optional **deadline** — a request whose
deadline passes while it queues fails fast with :class:`DeadlineExceeded`
instead of occupying rows in a forward.  Each batcher has exactly one
drain thread; serving scales out across cores with fleet replicas
(:mod:`repro.serve.fleet`), not with more drainers per queue.

Isolation: a request is validated against the servable's feature width and
dtype *at submit time*, so one malformed request fails alone with a
``ValueError`` instead of poisoning every innocent request fused into its
batch.

An LRU prediction cache keyed by input digest sits in front of the forward:
repeated requests (health probes, hot queries) are answered without touching
the model.
"""

from __future__ import annotations

import hashlib
import heapq
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["BatchingConfig", "BatcherStats", "DeadlineExceeded",
           "MicroBatcher", "Overloaded", "ShuttingDown", "input_digest",
           "run_at_quantum"]


class DeadlineExceeded(RuntimeError):
    """A request's deadline passed before the batcher could serve it."""


class Overloaded(RuntimeError):
    """The server shed this request *before* queueing it (HTTP 429).

    Raised by model-driven admission control (see
    :class:`repro.serve.capacity.AdmissionController`) when the predicted
    queueing delay already exceeds the latency budget — the request would
    only expire in the queue, so it is refused up front while it is still
    cheap to retry elsewhere.  Retryable by design: a fleet router fails a
    429 over to a less-loaded replica.
    """


class ShuttingDown(RuntimeError):
    """The batcher (or server) is stopping and cannot answer this request.

    Raised synchronously by ``submit`` on a closed batcher, and set on the
    futures of queued requests that a non-draining shutdown (or a drain
    that ran out of time) will never serve — clients fail fast instead of
    hanging on a future nobody will ever resolve.  A ``RuntimeError``
    subclass, so callers that caught the old closed-batcher error keep
    working.
    """


def run_at_quantum(fn, rows: np.ndarray, quantum: int) -> np.ndarray:
    """Run ``fn`` over ``rows`` in chunks of *exactly* ``quantum`` rows.

    Short chunks (including the tail) are padded by repeating their last row
    and the padding is stripped from the output.  Fixing the row count of
    every call is what makes predictions bit-for-bit reproducible: BLAS gemm
    kernels pick different reduction orders for different row counts, so a
    row's result is a pure function of (row, weights, batch rows).  Both the
    micro-batcher and offline quantized inference
    (``ServableModel.predict_logits(x, batch_size=...)``) go through this
    one implementation, which is what keeps them bit-identical.
    """
    chunks: List[np.ndarray] = []
    for start in range(0, len(rows), quantum):
        chunk = rows[start:start + quantum]
        short = quantum - len(chunk)
        if short > 0:
            padded = np.concatenate(
                [chunk, np.repeat(chunk[-1:], short, axis=0)])
            chunks.append(fn(padded)[:-short])
        else:
            chunks.append(fn(chunk))
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


@dataclass
class BatchingConfig:
    """Knobs of the dynamic micro-batching engine.

    ``max_batch_size`` bounds the rows fused into one forward;
    ``max_latency_ms`` bounds how long the first request of a batch waits
    for company.  ``max_batch_size=1`` degenerates to one forward per
    request (the unbatched baseline the serving benchmark compares against).

    Every forward runs at *exactly* ``max_batch_size`` rows, padding
    smaller batches and chunking larger ones.  BLAS gemm kernels pick
    different reduction orders for different row counts, so a row's result
    is a pure function of (row, weights, batch rows) — fixing the row count
    makes every served prediction bit-for-bit reproducible regardless of
    what traffic it happened to share a batch with, equal to offline
    inference at the same quantum
    (``ServableModel.predict_proba(x, batch_size=max_batch_size)``).  The
    queue is unbounded; overload is shed by admission control
    (:class:`~repro.serve.capacity.AdmissionController`) and deadlines.
    """

    max_batch_size: int = 32
    max_latency_ms: float = 2.0
    #: LRU prediction-cache capacity in entries; 0 disables caching.
    cache_size: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


@dataclass
class BatcherStats:
    """Counters exposed by ``MicroBatcher.stats()`` (and ``GET /stats``)."""

    requests: int = 0
    examples: int = 0
    batches: int = 0
    batched_examples: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    largest_batch: int = 0
    #: requests answered with a prediction (cache hits included).  Together
    #: with the failure counters this conserves accepted traffic: once all
    #: futures have resolved, ``requests == served + expired + shed +
    #: errors`` (``rejected`` requests never count into ``requests`` — they
    #: fail synchronously at submit).
    served: int = 0
    #: requests whose forward raised — the error fanned out to the batch
    errors: int = 0
    #: requests rejected at submit (wrong width/dtype/shape) — each failed
    #: alone, no batch-mate ever saw them
    rejected: int = 0
    #: requests whose deadline passed before a forward could serve them —
    #: or, the forward done, before the result could be delivered (a
    #: request never completes successfully after its own deadline)
    expired: int = 0
    #: queued requests failed fast with :class:`ShuttingDown` because the
    #: batcher stopped before its drain thread could serve them
    shed: int = 0

    def add(self, other: "BatcherStats") -> "BatcherStats":
        """Accumulate ``other`` into this instance (counters sum,
        ``largest_batch`` takes the max); returns ``self``.  Iterates the
        dataclass fields so a newly added counter aggregates automatically
        instead of being silently dropped from rollups."""
        for field in fields(self):
            if field.name == "largest_batch":
                self.largest_batch = max(self.largest_batch,
                                         other.largest_batch)
            else:
                setattr(self, field.name,
                        getattr(self, field.name) + getattr(other, field.name))
        return self

    def copy(self) -> "BatcherStats":
        return BatcherStats().add(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "BatcherStats":
        """Read counters back from an :meth:`as_dict` payload (a replica's
        ``GET /stats`` entry); ``mean_batch_size`` is derived, not read."""
        return cls(**{field.name: payload.get(field.name, 0)
                      for field in fields(cls)})

    def as_dict(self) -> Dict[str, float]:
        mean = (self.batched_examples / self.batches) if self.batches else 0.0
        return dict(asdict(self), mean_batch_size=round(mean, 2))


def input_digest(features: np.ndarray) -> str:
    """Digest of one request's input rows (the prediction-cache key).

    Covers shape, dtype, and raw bytes.  Each batcher's cache holds rows of
    the one ``predict_fn`` it was built with, so the model needs no part in
    the key.  The micro-batcher digests the rows *after* normalizing them to
    the servable's dtype, so identical rows submitted as float32 vs float64
    share one cache entry.
    """
    array = np.ascontiguousarray(features)
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode("utf-8"))
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(array.tobytes())
    return digest.hexdigest()


class _LRUCache:
    """A tiny thread-safe LRU map (digest -> prediction rows)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[np.ndarray]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: str, value: np.ndarray) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Request:
    __slots__ = ("features", "future", "rows", "single", "digest",
                 "enqueued_at", "priority", "deadline", "sort_key")

    def __init__(self, features: np.ndarray, single: bool,
                 priority: int = 0, deadline: Optional[float] = None):
        self.features = features
        self.future: "Future[np.ndarray]" = Future()
        self.rows = len(features)
        self.single = single
        self.digest: Optional[str] = None
        self.enqueued_at = time.perf_counter()
        self.priority = priority
        #: absolute ``time.perf_counter()`` instant, or None for no deadline
        self.deadline = deadline
        #: heap key assigned by the queue; reused when a request that would
        #: overflow a batch is handed back, so it keeps its place in line
        self.sort_key: Optional[tuple] = None

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.perf_counter()) > self.deadline


#: Sentinel asking the drain thread to finish the queue and exit.
_SHUTDOWN = object()

#: Seconds ``MicroBatcher.close`` waits for the drain thread to exit.
CLOSE_TIMEOUT = 10.0

#: Budget an answer must still have when it is delivered.  The caller sees
#: completion a few microseconds after ``set_result`` (its done-callbacks run
#: next), so an answer delivered with less left than this would land just
#: past the deadline; it fails with ``DeadlineExceeded`` instead.
_DELIVERY_HEADROOM_S = 0.0005


class _RequestQueue:
    """A blocking priority queue of requests (plus the shutdown sentinel).

    Orders by ``(-priority, enqueue_seq)``: higher priorities drain first,
    FIFO within a priority level.  The shutdown sentinel sorts *after*
    every request, so by the time the drain thread pops it the queue holds
    no unanswered work.
    """

    def __init__(self):
        self._heap: List[tuple] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def put(self, item) -> None:
        with self._lock:
            self._seq += 1
            # Keys are unique (the sequence number is embedded), so heap
            # comparisons never fall through to the item itself.
            if item is _SHUTDOWN:
                key = (float("inf"), self._seq)
            else:
                key = (-item.priority, self._seq)
                item.sort_key = key
            heapq.heappush(self._heap, (key, item))
            self._not_empty.notify()

    def put_back(self, request: "_Request") -> None:
        """Re-insert a popped request under its original key (it keeps its
        place in line)."""
        with self._lock:
            heapq.heappush(self._heap, (request.sort_key, request))
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None):
        """Pop the highest-priority item, blocking up to ``timeout`` seconds
        (``None`` blocks forever).  Raises ``queue.Empty`` on timeout."""
        with self._lock:
            if timeout is None:
                while not self._heap:
                    self._not_empty.wait()
            else:
                deadline = time.monotonic() + timeout
                while not self._heap:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise queue.Empty
                    self._not_empty.wait(remaining)
            _, item = heapq.heappop(self._heap)
            return item

    def drain_pending(self) -> List["_Request"]:
        """Atomically remove and return every queued *request*.

        The shutdown sentinel (if queued) stays put so the drain thread
        still wakes up and exits.  Used by a non-draining ``close`` to fail
        pending futures fast instead of leaving clients hanging.
        """
        with self._lock:
            requests = [item for _, item in self._heap if item is not _SHUTDOWN]
            self._heap = [(key, item) for key, item in self._heap
                          if item is _SHUTDOWN]
            heapq.heapify(self._heap)
            return requests

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for _, item in self._heap if item is not _SHUTDOWN)


class MicroBatcher:
    """Queue requests, fuse them into batches, fan results back out.

    ``predict_fn`` maps a ``(n, d)`` float array to an ``(n, k)`` array;
    rows are independent (as in any batched model forward), which is what
    makes fan-out/fan-in sound.  One daemon drain thread owns this
    batcher's forwards, so a batcher never calls ``predict_fn`` from two
    threads at once.

    ``input_dim`` / ``dtype``, when given (the :class:`~repro.serve.Server`
    plumbs them from the servable), are enforced at :meth:`submit`: a
    request with the wrong feature width or an uncastable dtype raises
    ``ValueError`` immediately and alone, and every request is normalized to
    the servable dtype *before* it is digested or fused — so a malformed or
    mixed-dtype request can never poison the batch-mates it would have been
    fused with, and identical rows share one cache entry regardless of the
    dtype they were submitted as.
    """

    def __init__(self, predict_fn: Callable[[np.ndarray], np.ndarray],
                 config: Optional[BatchingConfig] = None,
                 input_dim: Optional[int] = None,
                 dtype: Optional[np.dtype] = None):
        self.predict_fn = predict_fn
        self.config = config or BatchingConfig()
        self.input_dim = input_dim
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self._cache = _LRUCache(self.config.cache_size)
        self._queue = _RequestQueue()
        self._stats = BatcherStats()
        self._stats_lock = threading.Lock()
        self._closed = False
        # Serializes enqueues against close(): a request put under this lock
        # is guaranteed to sort ahead of the shutdown sentinel, so the drain
        # thread always answers it before exiting (no future ever hangs).
        self._submit_lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-batcher")
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def _validate(self, features: np.ndarray) -> np.ndarray:
        """Shape/width/dtype checks + dtype normalization for one request.

        Raises ``ValueError`` on a malformed request — synchronously, before
        the request can ever reach a fused batch — and returns the array
        normalized to the servable dtype otherwise.
        """
        array = np.asarray(features)
        if array.ndim not in (1, 2) or array.size == 0:
            raise ValueError(f"expected (d,) or non-empty (n, d) input, "
                             f"got shape {array.shape}")
        width = array.shape[-1]
        if self.input_dim is not None and width != self.input_dim:
            raise ValueError(
                f"request has {width} features per row; this model takes "
                f"{self.input_dim}")
        if self.dtype is not None and array.dtype != self.dtype:
            if not np.can_cast(array.dtype, self.dtype, casting="same_kind"):
                raise ValueError(
                    f"request dtype {array.dtype} cannot be cast to the "
                    f"model dtype {self.dtype}")
            array = array.astype(self.dtype)
        # A NaN/Inf row would be served as non-standard JSON tokens and
        # cached; it is the client's fault, so it fails here, alone.
        if array.dtype.kind in "fc" and not np.isfinite(array).all():
            raise ValueError("request contains non-finite values "
                             "(NaN or Inf)")
        return array

    def submit(self, features: np.ndarray, priority: int = 0,
               deadline_ms: Optional[float] = None) -> "Future[np.ndarray]":
        """Enqueue one request; the future resolves to its prediction rows.

        ``features`` may be a single example ``(d,)`` or a block ``(n, d)``;
        the future carries matching ``(k,)`` or ``(n, k)`` predictions.
        Higher ``priority`` requests drain first (FIFO within a level).
        With ``deadline_ms``, a request still queued that many milliseconds
        from now fails with :class:`DeadlineExceeded` instead of occupying
        rows in a forward.
        """
        if self._closed:
            raise ShuttingDown("MicroBatcher is closed")
        try:
            array = self._validate(features)
        except ValueError:
            with self._stats_lock:
                self._stats.rejected += 1
            raise
        single = array.ndim == 1
        if single:
            array = array[None, :]
        deadline = None
        if deadline_ms is not None:
            deadline = time.perf_counter() + float(deadline_ms) / 1000.0
        request = _Request(array, single=single, priority=int(priority),
                           deadline=deadline)
        with self._stats_lock:
            self._stats.requests += 1
            self._stats.examples += request.rows
        if request.expired():
            self._expire(request)
            return request.future
        # Answer straight from the cache when possible — no queue, no batch.
        if self.config.cache_size > 0:
            request.digest = input_digest(array)
            cached = self._cache.get(request.digest)
            if cached is not None:
                with self._stats_lock:
                    self._stats.cache_hits += 1
                    self._stats.served += 1
                # A fresh copy per hit: a caller mutating its result in
                # place must never corrupt what later requests are served.
                result = cached.copy()
                request.future.set_result(result[0] if single else result)
                return request.future
            with self._stats_lock:
                self._stats.cache_misses += 1
        with self._submit_lock:
            if self._closed:
                raise ShuttingDown("MicroBatcher is closed")
            self._queue.put(request)
        return request.future

    def predict(self, features: np.ndarray,
                timeout: Optional[float] = None, priority: int = 0,
                deadline_ms: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(features, priority=priority,
                           deadline_ms=deadline_ms).result(timeout=timeout)

    def snapshot(self) -> BatcherStats:
        """A consistent copy of every counter."""
        with self._stats_lock:
            return self._stats.copy()

    def stats(self) -> Dict[str, float]:
        """The counters as one JSON-ready dict."""
        return self.snapshot().as_dict()

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the drain thread down.

        With ``drain`` (the default) everything already queued is still
        served before the thread exits.  With ``drain=False`` — a replica
        being torn down, a server that must stop *now* — queued requests
        fail fast with :class:`ShuttingDown` instead.  Either way, any
        request still queued once the join's ``CLOSE_TIMEOUT`` lapses (the
        thread wedged inside a forward, say) is failed with
        :class:`ShuttingDown` rather than left as a future nobody will ever
        resolve: a stopping batcher never hangs its clients.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._shed(self._queue.drain_pending())
            # The sentinel sorts after every request already queued.
            self._queue.put(_SHUTDOWN)
        self._thread.join(timeout=CLOSE_TIMEOUT)
        # A thread that did not exit in time will never serve what is left.
        self._shed(self._queue.drain_pending())

    def _shed(self, requests: List["_Request"]) -> None:
        """Fail queued-but-never-served requests fast with ShuttingDown."""
        if not requests:
            return
        with self._stats_lock:
            self._stats.shed += len(requests)
        for request in requests:
            request.future.set_exception(ShuttingDown(
                "batcher shut down before this request could be served"))

    def queue_depth(self) -> int:
        """Requests currently waiting in the queue (health-check signal)."""
        return len(self._queue)

    def is_alive(self) -> bool:
        """True while the drain thread runs — before :meth:`close` and
        while it answers the requests still queued after it; until then
        the counters may still move."""
        return self._thread.is_alive()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Drain-thread side
    # ------------------------------------------------------------------ #
    def _expire(self, request: "_Request") -> None:
        with self._stats_lock:
            self._stats.expired += 1
        waited = (time.perf_counter() - request.enqueued_at) * 1000.0
        request.future.set_exception(DeadlineExceeded(
            f"request deadline exceeded after {waited:.1f} ms in queue"))

    def _drain_batch(self, first: "_Request") -> List["_Request"]:
        """Gather requests until the batch is full or the deadline passes.

        A request whose rows would push the batch past ``max_batch_size`` is
        handed back to the queue (keeping its place in line) and opens the
        next batch instead — a batch never overshoots the configured max.
        Only a single request larger than the whole quantum runs alone,
        chunked to the quantum by ``run_at_quantum``.
        """
        batch = [first]
        rows = first.rows
        deadline = time.perf_counter() + self.config.max_latency_ms / 1000.0
        while rows < self.config.max_batch_size:
            # ``max_latency_ms`` bounds how long the batch *waits* for
            # company; requests already queued when the window closes are
            # still scooped (a zero-timeout get) — fusing a backlog adds
            # no latency, and under load it is what lets a batch-B config
            # actually reach B-row forwards instead of degenerating to
            # one-row batches.
            remaining = deadline - time.perf_counter()
            try:
                item = self._queue.get(timeout=max(0.0, remaining))
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # Re-enqueue so the outer loop sees it after this batch.
                self._queue.put(_SHUTDOWN)
                break
            if item.expired():
                self._expire(item)
                continue
            if rows + item.rows > self.config.max_batch_size:
                self._queue.put_back(item)
                break
            batch.append(item)
            rows += item.rows
        return batch

    def _process(self, batch: List["_Request"]) -> None:
        # Fuse-time re-check: a deadline can pass between the gather in
        # _drain_batch (where expiry was last checked) and this forward —
        # the batch may have waited out max_latency_ms collecting company.
        # Expired requests are dropped here so they never occupy rows in
        # the forward; their batch-mates are fused and served unharmed.
        now = time.perf_counter()
        live: List["_Request"] = []
        for request in batch:
            if request.expired(now):
                self._expire(request)
            else:
                live.append(request)
        if not live:
            return
        batch = live
        rows = int(sum(r.rows for r in batch))
        fused = (batch[0].features if len(batch) == 1
                 else np.concatenate([r.features for r in batch]))
        try:
            predictions = run_at_quantum(self.predict_fn, fused,
                                         self.config.max_batch_size)
        except BaseException as error:  # fan the failure out, keep serving
            with self._stats_lock:
                self._stats.errors += len(batch)
            for request in batch:
                request.future.set_exception(error)
            return
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.batched_examples += rows
            self._stats.largest_batch = max(self._stats.largest_batch, rows)
        offset = 0
        delivered = 0
        for request in batch:
            result = predictions[offset:offset + request.rows]
            offset += request.rows
            if self.config.cache_size > 0 and request.digest is not None:
                # Cache an owned copy: the requester's array must never
                # alias the cache (callers may mutate their result), and a
                # row-sized copy does not pin the whole fused batch alive.
                # Cached even when the requester expired below — the
                # forward is done, so the work may as well serve repeats.
                self._cache.put(request.digest, result.copy())
            # Delivery-time check: the deadline may have passed *during*
            # the forward.  Failing with DeadlineExceeded here is what
            # guarantees a request never completes successfully after its
            # own deadline — the latency contract stays honest even when
            # the answer was computed.
            if request.expired(time.perf_counter() + _DELIVERY_HEADROOM_S):
                self._expire(request)
                continue
            request.future.set_result(result[0] if request.single else result)
            delivered += 1
        if delivered:
            with self._stats_lock:
                self._stats.served += delivered

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                # Requests all sort ahead of the sentinel, so the queue
                # holds no unanswered work.
                return
            if item.expired():
                self._expire(item)
                continue
            self._process(self._drain_batch(item))
