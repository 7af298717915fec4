"""Tests for traffic shaping: priorities, deadlines, concurrent clients."""

import threading
import time

import numpy as np
import pytest

from repro.serve import BatchingConfig, DeadlineExceeded, MicroBatcher
from repro.serve.batching import run_at_quantum

from .conftest import GatedModel


class TestPriorities:
    def _drain_order(self, submissions):
        """Submit ``(row_value, priority)`` pairs while the worker is parked
        in a forward; return the order the model then served them in."""
        model = GatedModel()
        config = BatchingConfig(max_batch_size=1, max_latency_ms=0,
                                cache_size=0)
        with MicroBatcher(model, config) as batcher:
            plug = batcher.submit(np.zeros(2))
            assert model.entered.wait(timeout=10)
            futures = [batcher.submit(np.full(2, float(value)),
                                      priority=priority)
                       for value, priority in submissions]
            model.release.set()
            plug.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
        return [int(call[0, 0]) for call in model.calls[1:]]

    def test_higher_priority_drains_first(self):
        order = self._drain_order([(1, 0), (2, 5), (3, 1)])
        assert order == [2, 3, 1]

    def test_fifo_within_a_priority_level(self):
        order = self._drain_order([(1, 0), (2, 0), (3, 0)])
        assert order == [1, 2, 3]

    def test_default_priority_preserves_arrival_order(self):
        order = self._drain_order([(i, 0) for i in range(1, 6)])
        assert order == [1, 2, 3, 4, 5]


class TestDeadlines:
    def test_expired_request_fails_fast_and_skips_the_forward(self):
        model = GatedModel()
        config = BatchingConfig(max_batch_size=8, max_latency_ms=5,
                                cache_size=0)
        with MicroBatcher(model, config) as batcher:
            plug = batcher.submit(np.zeros(3))
            assert model.entered.wait(timeout=10)
            doomed = batcher.submit(np.full(3, 7.0), deadline_ms=30)
            survivor = batcher.submit(np.full(3, 9.0), deadline_ms=60_000)
            time.sleep(0.08)                     # let the deadline pass
            model.release.set()
            plug.result(timeout=10)
            with pytest.raises(DeadlineExceeded, match="deadline"):
                doomed.result(timeout=10)
            # The batch-mate with a live deadline is served normally.
            assert np.array_equal(survivor.result(timeout=10), np.full(3, 9.0))
        # The expired rows never occupied a forward.
        assert not any((call == 7.0).all(axis=1).any() for call in model.calls)
        stats = batcher.stats()
        assert stats["expired"] == 1
        assert stats["requests"] == 3
        assert batcher.snapshot().batched_examples == 2   # plug + survivor

    def test_deadline_expiring_between_gather_and_forward(self):
        """The fuse-time re-check: a request gathered *live* whose deadline
        passes while the batch opener waits out ``max_latency_ms`` must be
        expired at fuse time — never occupying forward compute — while its
        batch-mates are served unharmed."""
        calls = []

        def recording(batch):
            calls.append(np.array(batch, copy=True))
            return batch.copy()

        # The doomed request opens the batch (so it is gathered while its
        # deadline is still live), then the 150 ms gather window outlives
        # its 40 ms deadline.
        config = BatchingConfig(max_batch_size=8, max_latency_ms=150,
                                cache_size=0)
        with MicroBatcher(recording, config) as batcher:
            doomed = batcher.submit(np.full(3, 7.0), deadline_ms=40)
            survivor = batcher.submit(np.full(3, 9.0), deadline_ms=60_000)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            assert np.array_equal(survivor.result(timeout=10),
                                  np.full(3, 9.0))
        # The doomed rows never reached the model.
        assert not any((call == 7.0).all(axis=1).any() for call in calls)
        stats = batcher.stats()
        assert stats["expired"] == 1
        assert stats["served"] == 1
        assert stats["requests"] == 2
        assert batcher.snapshot().batched_examples == 1   # the survivor alone

    def test_deadline_expiring_during_the_forward(self):
        """The delivery-time re-check: a request whose forward *finishes*
        after its deadline must fail with DeadlineExceeded — a request
        never completes successfully after its own deadline — but the
        computed result still lands in the cache for future callers."""
        model = GatedModel()
        config = BatchingConfig(max_batch_size=1, max_latency_ms=0,
                                cache_size=64)
        row = np.full(3, 5.0)
        with MicroBatcher(model, config) as batcher:
            late = batcher.submit(row, deadline_ms=40)
            assert model.entered.wait(timeout=10)  # forward in flight
            time.sleep(0.08)                       # deadline passes mid-forward
            model.release.set()
            with pytest.raises(DeadlineExceeded, match="deadline"):
                late.result(timeout=10)
            # The work was not wasted: the same input now hits the cache.
            assert np.array_equal(batcher.submit(row).result(timeout=10), row)
            stats = batcher.stats()
        assert stats["expired"] == 1
        assert stats["cache_hits"] == 1
        assert len(model.calls) == 1               # served from cache, not re-run

    def test_answer_without_delivery_headroom_expires(self):
        """Regression: an answer finished 0.1 ms inside its deadline was
        served, and the caller's done-callback, which runs after the
        batcher's expiry check, then saw it complete past the deadline."""
        submitted = []

        def finish_just_inside(batch):
            while time.perf_counter() < submitted[0] + 0.050 - 0.0001:
                pass
            return batch.copy()

        config = BatchingConfig(max_batch_size=1, max_latency_ms=0,
                                cache_size=0)
        with MicroBatcher(finish_just_inside, config) as batcher:
            submitted.append(time.perf_counter())
            future = batcher.submit(np.ones(3), deadline_ms=50)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
        assert batcher.stats()["expired"] == 1

    def test_already_expired_deadline_fails_at_submit(self):
        with MicroBatcher(lambda b: b.copy(),
                          BatchingConfig(cache_size=0)) as batcher:
            future = batcher.submit(np.ones(2), deadline_ms=-5)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)

    def test_generous_deadline_is_met(self):
        with MicroBatcher(lambda b: b * 2,
                          BatchingConfig(cache_size=0)) as batcher:
            result = batcher.predict(np.ones(3), timeout=10,
                                     deadline_ms=60_000)
        assert np.array_equal(result, np.full(3, 2.0))


class TestConcurrentClients:
    def test_results_bit_identical_to_quantized_offline(self):
        """Bit-determinism survives concurrent clients: every forward runs
        at the fixed quantum, and a row's result is a pure function of
        (row, weights, batch row count) — not of its batch-mates."""
        rng = np.random.default_rng(21)
        weights = rng.normal(size=(6, 4))

        def forward(batch):
            return batch @ weights

        inputs = rng.normal(size=(200, 6))
        reference = run_at_quantum(forward, inputs, 8)
        config = BatchingConfig(max_batch_size=8, max_latency_ms=2,
                                cache_size=0)
        results = np.zeros((200, 4))
        errors = []
        with MicroBatcher(forward, config) as batcher:

            def client(indices):
                try:
                    for i in indices:
                        results[i] = batcher.predict(inputs[i], timeout=30)
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)

            threads = [threading.Thread(target=client,
                                        args=(range(k, 200, 4),))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert np.array_equal(results, reference)

    def test_close_answers_everything_submitted_by_concurrent_clients(self):
        for _ in range(5):
            batcher = MicroBatcher(lambda b: b.copy(),
                                   BatchingConfig(max_latency_ms=0,
                                                  cache_size=0))
            futures = []
            lock = threading.Lock()

            def client():
                mine = [batcher.submit(np.ones(2)) for _ in range(10)]
                with lock:
                    futures.extend(mine)

            threads = [threading.Thread(target=client) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            batcher.close()
            assert len(futures) == 30
            for future in futures:
                assert np.array_equal(future.result(timeout=10), np.ones(2))

    def test_stats_are_exactly_the_counters(self):
        with MicroBatcher(lambda b: b.copy(),
                          BatchingConfig(cache_size=0)) as batcher:
            batcher.predict(np.ones(2), timeout=10)
            stats = batcher.stats()
        assert stats == batcher.snapshot().as_dict()
        assert stats["requests"] == stats["served"] == 1
