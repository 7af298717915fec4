"""Counter-conservation property tests.

The accounting law the batcher promises (and ``GET /stats`` exposes):
once every future has resolved,

    requests == served + expired + shed + errors

— every accepted request lands in exactly one terminal bucket.
``rejected`` requests fail synchronously at submit and never count into
``requests``; with the cache enabled, ``cache_hits + cache_misses``
partition the single-row lookups.  The law is exercised under concurrent
submit / expiry / shed / close traffic.  A fleet's ``GET /stats`` merges
its replicas' counters with the same ``BatcherStats.add`` a server uses,
so the merged counters are exact too.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.serve import BatcherStats, BatchingConfig, MicroBatcher, Router

def conserved(stats: dict) -> bool:
    return stats["requests"] == (stats["served"] + stats["expired"]
                                 + stats["shed"] + stats["errors"])


def chaotic_predict(rows: np.ndarray) -> np.ndarray:
    """A forward that is slow enough to queue traffic and fails on a
    marked input — errors must land in their bucket, not vanish."""
    rows = np.atleast_2d(rows)
    time.sleep(0.001)
    if (rows[:, 0] > 1e5).any():
        raise RuntimeError("poisoned batch")
    return rows.copy()


def run_chaos(config: BatchingConfig, close_drain: bool,
              poison: bool = False) -> dict:
    """Hammer a batcher from 4 threads with mixed deadlines, then close it
    mid-traffic and return the final counters."""
    batcher = MicroBatcher(chaotic_predict, config, input_dim=3)
    futures = []
    futures_lock = threading.Lock()
    rejected = [0]

    def client(worker_index: int) -> None:
        rng = np.random.default_rng(worker_index)
        for i in range(60):
            kind = i % 6
            row = np.full(3, float(worker_index * 1000 + i))
            deadline = None
            if kind == 1:
                deadline = 0.0001          # doomed: expires at submit
            elif kind == 2:
                deadline = 2.0             # tight: may expire queued
            if poison and kind == 3:
                row = np.full(3, 1e9)      # blows up the forward
            if kind == 4:
                # Wrong width or a NaN row: rejected synchronously, alone.
                bad = np.zeros(7) if i % 12 == 4 else np.full(3, np.nan)
                try:
                    batcher.submit(bad)
                except ValueError:
                    with futures_lock:
                        rejected[0] += 1
                continue
            try:
                future = batcher.submit(row, priority=int(rng.integers(3)),
                                        deadline_ms=deadline)
            except Exception:
                continue               # ShuttingDown during close: raced
            with futures_lock:
                futures.append(future)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)
    # Close in the middle of the submission storm: late submits race the
    # shutdown, queued requests are drained or shed — the law must hold
    # either way.
    closer = threading.Thread(target=lambda: batcher.close(drain=close_drain))
    closer.start()
    for thread in threads:
        thread.join()
    closer.join()
    for future in futures:
        try:
            future.result(timeout=30)
        except Exception:
            pass                       # the *kind* of failure is counted
    stats = batcher.stats()
    stats["_rejected_seen"] = rejected[0]
    return stats


class TestConservationUnderChaos:
    def test_concurrent_submit_expiry_and_drain_close(self):
        config = BatchingConfig(max_batch_size=8, max_latency_ms=1.0,
                                cache_size=0)
        stats = run_chaos(config, close_drain=True)
        assert conserved(stats), stats
        assert stats["expired"] > 0          # the doomed deadlines fired
        assert stats["served"] > 0
        assert stats["rejected"] == stats["_rejected_seen"]

    def test_abrupt_close_sheds_instead_of_hanging(self):
        config = BatchingConfig(max_batch_size=8, max_latency_ms=1.0,
                                cache_size=0)
        stats = run_chaos(config, close_drain=False)
        assert conserved(stats), stats

    def test_forward_errors_land_in_their_bucket(self):
        config = BatchingConfig(max_batch_size=4, max_latency_ms=1.0,
                                cache_size=0)
        stats = run_chaos(config, close_drain=True, poison=True)
        assert conserved(stats), stats
        assert stats["errors"] > 0

    def test_cache_hits_and_misses_partition_lookups(self):
        """With the cache on and no deadlines, every single-row submit is
        exactly one lookup: hits + misses == requests — and hits are
        served without touching the conservation law."""
        config = BatchingConfig(max_batch_size=8, max_latency_ms=1.0,
                                cache_size=256)
        with MicroBatcher(chaotic_predict, config) as batcher:
            rng = np.random.default_rng(0)
            distinct = rng.normal(size=(10, 3))
            # Round one populates the cache (all misses)...
            for future in [batcher.submit(row) for row in distinct]:
                future.result(timeout=30)
            # ...and every replay afterwards must hit it.
            futures = [batcher.submit(distinct[i % 10]) for i in range(190)]
            for future in futures:
                future.result(timeout=30)
            stats = batcher.stats()
        assert conserved(stats), stats
        assert stats["cache_hits"] + stats["cache_misses"] \
            == stats["requests"] == 200
        assert stats["cache_hits"] == 190
        assert stats["served"] == 200


class StatsReplica:
    """A replica app whose ``GET /stats`` reports fixed batcher counters."""

    def __init__(self, counters: BatcherStats):
        self.counters = counters

    def stats(self):
        return {"m@1": self.counters.as_dict()}


class TestFleetStatsMerge:
    def test_mean_batch_size_is_the_exact_merge(self, serve):
        """One replica ran 1 batch of 1 row, the other 6 batches with 7
        rows: the fleet's mean is 8 / 7 = 1.14.  Merging the replicas'
        rounded means (1.0 and 1.17, weighted by batches) gives 1.15."""
        first = BatcherStats(requests=1, examples=1, batches=1,
                             batched_examples=1, largest_batch=1, served=1)
        second = BatcherStats(requests=7, examples=7, batches=6,
                              batched_examples=7, largest_batch=2, served=7)
        router = Router()
        for index, counters in enumerate((first, second)):
            router.add_replica(f"r{index}", *serve(StatsReplica(counters)))
        try:
            merged = router.stats()["m@1"]
        finally:
            router.close()
        assert merged["mean_batch_size"] == 1.14
        assert merged == first.copy().add(second).as_dict()
        assert merged["batched_examples"] == 8
        assert conserved(merged)
