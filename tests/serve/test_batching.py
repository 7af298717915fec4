"""Tests for the dynamic micro-batching engine."""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.serve import (BatchingConfig, MicroBatcher, ShuttingDown,
                         batching, input_digest)

from .conftest import GatedModel


def square_rows(batch: np.ndarray) -> np.ndarray:
    """A stand-in 'model': rows are independent, like any batched forward."""
    return np.stack([row * row for row in batch])


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingConfig(max_latency_ms=-1)
        with pytest.raises(ValueError):
            BatchingConfig(cache_size=-1)


class TestFanOutFanIn:
    def test_single_example_requests(self):
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(50, 6))
        with MicroBatcher(square_rows, BatchingConfig(cache_size=0)) as batcher:
            futures = [batcher.submit(row) for row in inputs]
            results = np.stack([f.result(timeout=10) for f in futures])
        assert np.array_equal(results, inputs * inputs)

    def test_multi_row_requests_keep_shape(self):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(n, 4)) for n in (1, 3, 7, 2)]
        with MicroBatcher(square_rows, BatchingConfig(cache_size=0)) as batcher:
            futures = [batcher.submit(block) for block in blocks]
            for block, future in zip(blocks, futures):
                result = future.result(timeout=10)
                assert result.shape == block.shape
                assert np.array_equal(result, block * block)

    def test_requests_actually_get_batched(self):
        """Many queued requests must collapse into far fewer forwards."""
        calls = []

        def record(batch):
            calls.append(len(batch))
            return batch.copy()

        config = BatchingConfig(max_batch_size=16, max_latency_ms=50,
                                cache_size=0)
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(64, 3))
        with MicroBatcher(record, config) as batcher:
            futures = [batcher.submit(row) for row in inputs]
            for future in futures:
                future.result(timeout=10)
        stats = batcher.snapshot()
        assert stats.batches < 64              # genuinely fused
        assert len(calls) == stats.batches     # one forward per batch
        assert stats.largest_batch <= 16       # respects max_batch_size
        assert stats.batched_examples == 64    # nothing lost or duplicated

    def test_padded_forwards_run_at_the_fixed_quantum(self):
        """With padding on (the default), every model call sees exactly
        ``max_batch_size`` rows regardless of traffic."""
        calls = []

        def record(batch):
            calls.append(len(batch))
            return batch.copy()

        config = BatchingConfig(max_batch_size=8, max_latency_ms=5,
                                cache_size=0)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(21, 3))
        with MicroBatcher(record, config) as batcher:
            futures = [batcher.submit(row) for row in inputs]
            results = np.stack([f.result(timeout=10) for f in futures])
        assert set(calls) == {8}               # every forward at the quantum
        assert np.array_equal(results, inputs)  # padding never leaks out

    def test_max_latency_flushes_partial_batches(self):
        config = BatchingConfig(max_batch_size=1024, max_latency_ms=5,
                                cache_size=0)
        with MicroBatcher(square_rows, config) as batcher:
            start = time.perf_counter()
            result = batcher.submit(np.ones(3)).result(timeout=10)
            elapsed = time.perf_counter() - start
        assert np.array_equal(result, np.ones(3))
        assert elapsed < 5.0  # the deadline, not the full queue, flushed it

    def test_concurrent_submitters(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(200, 5))
        results = np.zeros_like(inputs)
        errors = []

        with MicroBatcher(square_rows,
                          BatchingConfig(max_batch_size=32,
                                         cache_size=0)) as batcher:

            def client(indices):
                try:
                    for i in indices:
                        results[i] = batcher.predict(inputs[i], timeout=10)
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
        assert np.array_equal(results, inputs * inputs)


class TestErrorsAndLifecycle:
    def test_forward_failure_propagates_to_every_future(self):
        def explode(batch):
            raise RuntimeError("model fell over")

        with MicroBatcher(explode, BatchingConfig(cache_size=0)) as batcher:
            futures = [batcher.submit(np.ones(2)) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="fell over"):
                    future.result(timeout=10)

    def test_failure_does_not_kill_the_worker(self):
        state = {"fail": True}

        def flaky(batch):
            if state["fail"]:
                state["fail"] = False
                raise RuntimeError("transient")
            return batch.copy()

        with MicroBatcher(flaky, BatchingConfig(cache_size=0)) as batcher:
            with pytest.raises(RuntimeError):
                batcher.predict(np.ones(2), timeout=10)
            assert np.array_equal(batcher.predict(np.ones(2), timeout=10),
                                  np.ones(2))

    def test_rejects_bad_shapes(self):
        with MicroBatcher(square_rows) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.ones((2, 2, 2)))
            with pytest.raises(ValueError):
                batcher.submit(np.ones((0, 4)))

    def test_submit_close_race_never_strands_a_future(self):
        """A future obtained from submit() always resolves, even when
        close() lands concurrently — late submits raise instead of hanging."""
        for trial in range(20):
            batcher = MicroBatcher(square_rows,
                                   BatchingConfig(max_latency_ms=0,
                                                  cache_size=0))
            futures, errors = [], []

            def submitter():
                try:
                    for _ in range(50):
                        futures.append(batcher.submit(np.ones(2)))
                except RuntimeError:
                    pass   # closed mid-stream: acceptable, just never hang
                except Exception as error:  # pragma: no cover - reporting
                    errors.append(error)

            thread = threading.Thread(target=submitter)
            thread.start()
            batcher.close()
            thread.join(timeout=10)
            assert not errors
            for future in futures:
                assert np.array_equal(future.result(timeout=5), np.ones(2))

    def test_close_answers_queued_work_then_rejects_new(self):
        batcher = MicroBatcher(square_rows, BatchingConfig(cache_size=0))
        future = batcher.submit(np.ones(3))
        batcher.close()
        assert np.array_equal(future.result(timeout=10), np.ones(3))
        with pytest.raises(ShuttingDown, match="closed"):
            batcher.submit(np.ones(3))

    def test_close_without_drain_fails_pending_fast(self):
        """Regression: ``close(drain=False)`` used to leave queued futures
        hanging forever behind a wedged forward.  Now they fail fast with
        :class:`ShuttingDown` while the in-flight request still answers."""
        model = GatedModel()
        batcher = MicroBatcher(model, BatchingConfig(max_batch_size=1,
                                                     max_latency_ms=0,
                                                     cache_size=0))
        in_flight = batcher.submit(np.ones(2))
        assert model.entered.wait(timeout=10)   # worker parked in a forward
        queued = [batcher.submit(np.full(2, i)) for i in range(3)]
        assert batcher.queue_depth() == 3

        closer = threading.Thread(target=batcher.close,
                                  kwargs={"drain": False})
        closer.start()
        # Shed immediately — NOT after the wedged forward finishes.
        for future in queued:
            with pytest.raises(ShuttingDown):
                future.result(timeout=10)
        assert batcher.queue_depth() == 0
        assert batcher.snapshot().shed == 3

        model.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # The request already inside the forward still answers normally...
        assert np.array_equal(in_flight.result(timeout=10), np.ones(2))
        # ...and late submits fail fast too, with the same typed error.
        with pytest.raises(ShuttingDown):
            batcher.submit(np.ones(2))

    def test_close_past_its_timeout_fails_pending(self, monkeypatch):
        """A draining close whose join lapses (the forward is wedged)
        fails what is still queued with :class:`ShuttingDown`."""
        monkeypatch.setattr(batching, "CLOSE_TIMEOUT", 0.05)
        model = GatedModel()
        batcher = MicroBatcher(model, BatchingConfig(max_batch_size=1,
                                                     max_latency_ms=0,
                                                     cache_size=0))
        in_flight = batcher.submit(np.ones(2))
        assert model.entered.wait(timeout=10)   # worker parked in a forward
        queued = [batcher.submit(np.full(2, i)) for i in range(3)]
        batcher.close()
        for future in queued:
            with pytest.raises(ShuttingDown):
                future.result(timeout=0)
        assert batcher.snapshot().shed == 3
        model.release.set()
        assert np.array_equal(in_flight.result(timeout=10), np.ones(2))

    def test_queue_depth_and_liveness_track_reality(self):
        model = GatedModel()
        batcher = MicroBatcher(model, BatchingConfig(max_batch_size=1,
                                                     max_latency_ms=0,
                                                     cache_size=0))
        assert batcher.is_alive()
        assert batcher.queue_depth() == 0
        first = batcher.submit(np.ones(2))
        assert model.entered.wait(timeout=10)
        model.release.set()
        assert np.array_equal(first.result(timeout=10), np.ones(2))
        batcher.close()
        assert not batcher.is_alive()


class TestRequestValidation:
    """Regression: one malformed request must never poison its batch-mates.

    Width and dtype are validated at ``submit`` (before the request can be
    fused), so the bad request fails alone with ``ValueError`` and every
    innocent request still resolves.
    """

    def test_wrong_width_fails_alone_while_batchmates_succeed(self):
        model = GatedModel()
        config = BatchingConfig(max_batch_size=16, max_latency_ms=50,
                                cache_size=0)
        rng = np.random.default_rng(11)
        good = rng.normal(size=(6, 4))
        with MicroBatcher(model, config, input_dim=4) as batcher:
            # Park the worker inside a forward, then stage a batch of valid
            # requests with one malformed request submitted among them.
            plug = batcher.submit(np.ones(4))
            assert model.entered.wait(timeout=10)
            futures = [batcher.submit(row) for row in good[:3]]
            with pytest.raises(ValueError, match="4"):
                batcher.submit(np.ones(7))        # wrong feature width
            futures += [batcher.submit(row) for row in good[3:]]
            model.release.set()
            plug.result(timeout=10)
            results = np.stack([f.result(timeout=10) for f in futures])
        # Every valid request resolved correctly; the bad one never reached
        # a forward (every call the model saw was 4 wide).
        assert np.array_equal(results, good)
        assert all(call.shape[1] == 4 for call in model.calls)
        stats = batcher.snapshot()
        assert stats.rejected == 1
        assert stats.batched_examples == 7        # the plug and six good rows

    def test_wrong_ndim_and_empty_still_rejected(self):
        with MicroBatcher(square_rows, input_dim=4) as batcher:
            with pytest.raises(ValueError):
                batcher.submit(np.ones((2, 2, 2)))
            with pytest.raises(ValueError):
                batcher.submit(np.ones((0, 4)))

    def test_uncastable_dtype_rejected(self):
        with MicroBatcher(square_rows, input_dim=3,
                          dtype=np.float64) as batcher:
            with pytest.raises(ValueError, match="dtype"):
                batcher.submit(np.array(["a", "b", "c"]))
        assert batcher.snapshot().rejected == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_rows_rejected_alone(self, value):
        calls = []

        def record(batch):
            calls.append(batch.copy())
            return batch * batch

        config = BatchingConfig(max_batch_size=8, max_latency_ms=1,
                                cache_size=16)
        with MicroBatcher(record, config, input_dim=3,
                          dtype=np.float64) as batcher:
            good = batcher.submit(np.ones(3))
            for bad in (np.array([1.0, value, 2.0]),
                        np.array([[1.0, 2.0, 3.0], [value, 0.0, 0.0]],
                                 dtype=np.float32)):
                with pytest.raises(ValueError, match="non-finite"):
                    batcher.submit(bad)
            good.result(timeout=10)
        stats = batcher.snapshot()
        assert stats.rejected == 2
        assert stats.requests == stats.served == 1
        assert all(np.isfinite(call).all() for call in calls)

    def test_mixed_dtypes_normalized_before_fusing(self):
        """Regression: a float32 request fused with float64 ones used to
        promote the whole batch; now every request is normalized to the
        servable dtype at submit, so the fused forward always sees it."""
        model = GatedModel()
        config = BatchingConfig(max_batch_size=8, max_latency_ms=50,
                                cache_size=0)
        with MicroBatcher(model, config, input_dim=3,
                          dtype=np.float64) as batcher:
            plug = batcher.submit(np.ones(3))
            assert model.entered.wait(timeout=10)
            f32 = batcher.submit(np.ones(3, dtype=np.float32) * 2)
            f64 = batcher.submit(np.ones(3) * 3)
            model.release.set()
            plug.result(timeout=10)
            f32.result(timeout=10)
            f64.result(timeout=10)
        assert all(call.dtype == np.float64 for call in model.calls)
        stats = batcher.snapshot()
        assert stats.batches == 2                 # float32 and float64 fused
        assert stats.largest_batch == 2

    def test_identical_rows_share_one_cache_entry_across_dtypes(self):
        """Regression: the cache digest was keyed on the *submitted* dtype,
        so float32 vs float64 submissions of the same row got distinct
        entries for bitwise-identical predictions."""
        calls = []

        def record(batch):
            calls.append(len(batch))
            return batch * batch

        x64 = np.arange(4, dtype=np.float64)
        with MicroBatcher(record, BatchingConfig(cache_size=8),
                          dtype=np.float64) as batcher:
            first = batcher.predict(x64, timeout=10)
            second = batcher.predict(x64.astype(np.float32), timeout=10)
            stats = batcher.stats()
        assert np.array_equal(first, second)
        assert stats["cache_hits"] == 1           # not a second miss
        assert stats["cache_misses"] == 1
        assert len(calls) == 1                    # one forward total


class TestBacklogScooping:
    """Regression: a closed gather window must not cap batches at one row.

    ``max_latency_ms`` bounds how long a batch *waits* for company.  It
    used to also stop the worker from fusing requests already sitting in
    the queue — with ``max_latency_ms=0`` every forward ran a single row
    no matter how deep the backlog, so a batch-B config melted down at
    ``1/s(B)`` req/s instead of reaching ``B/s(B)``.  Queued requests are
    free to batch: scooping them adds zero latency.
    """

    def test_window_zero_fuses_the_backlog(self):
        model = GatedModel()
        config = BatchingConfig(max_batch_size=4, max_latency_ms=0,
                                cache_size=0)
        with MicroBatcher(model, config) as batcher:
            plug = batcher.submit(np.ones(3))
            assert model.entered.wait(timeout=10)
            # Four requests pile up behind the in-flight forward...
            futures = [batcher.submit(np.full(3, float(i)))
                       for i in range(1, 5)]
            model.release.set()
            plug.result(timeout=10)
            for i, future in zip(range(1, 5), futures):
                assert np.array_equal(future.result(timeout=10),
                                      np.full(3, float(i)))
        # ...and are served as ONE four-row forward, not four singles.
        stats = batcher.snapshot()
        assert stats.batches == 2
        assert stats.largest_batch == 4
        assert stats.batched_examples == 5


class TestBatchOvershoot:
    """Regression: a multi-row request must not push a batch past the max."""

    def test_multi_row_requests_never_overflow_the_batch(self):
        model = GatedModel()
        config = BatchingConfig(max_batch_size=8, max_latency_ms=50,
                                cache_size=0)
        rng = np.random.default_rng(12)
        blocks = [rng.normal(size=(3, 4)) for _ in range(3)]
        with MicroBatcher(model, config) as batcher:
            plug = batcher.submit(np.ones(4))
            assert model.entered.wait(timeout=10)
            futures = [batcher.submit(block) for block in blocks]
            model.release.set()
            plug.result(timeout=10)
            for block, future in zip(blocks, futures):
                assert np.array_equal(future.result(timeout=10), block)
        # The three 3-row requests were queued together: 3+3 fused, the
        # third carried into the next batch (3+3+3 would overshoot 8).
        stats = batcher.snapshot()
        assert stats.batches == 3                 # plug, 3+3, then 3
        assert stats.largest_batch == 6
        assert stats.batched_examples == 10
        assert model.call_sizes == [8, 8, 8]      # each padded to the quantum

    def test_single_oversized_request_still_served(self):
        """One request larger than the quantum runs alone (chunked by
        ``run_at_quantum`` when padding is on) — never silently dropped."""
        calls = []

        def record(batch):
            calls.append(len(batch))
            return batch.copy()

        config = BatchingConfig(max_batch_size=4, max_latency_ms=5,
                                cache_size=0)
        block = np.random.default_rng(13).normal(size=(11, 3))
        with MicroBatcher(record, config) as batcher:
            result = batcher.predict(block, timeout=10)
        assert np.array_equal(result, block)
        assert set(calls) == {4}                  # chunked at the quantum


class TestCache:
    def test_repeat_requests_hit_the_cache(self):
        calls = []

        def record(batch):
            calls.append(len(batch))
            return batch * batch

        x = np.arange(4, dtype=np.float64)
        with MicroBatcher(record, BatchingConfig(cache_size=8)) as batcher:
            first = batcher.predict(x, timeout=10)
            second = batcher.predict(x, timeout=10)
            stats = batcher.stats()
        assert np.array_equal(first, second)
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert len(calls) == 1  # the second request never reached the model

    def test_distinct_inputs_do_not_collide(self):
        with MicroBatcher(square_rows, BatchingConfig(cache_size=8)) as batcher:
            a = batcher.predict(np.full(3, 2.0), timeout=10)
            b = batcher.predict(np.full(3, 3.0), timeout=10)
            stats = batcher.stats()
        assert np.array_equal(a, np.full(3, 4.0))
        assert np.array_equal(b, np.full(3, 9.0))
        assert stats["cache_hits"] == 0

    def test_lru_eviction(self):
        with MicroBatcher(square_rows, BatchingConfig(cache_size=2)) as batcher:
            x0, x1, x2 = (np.full(2, float(v)) for v in (1, 2, 3))
            batcher.predict(x0, timeout=10)
            batcher.predict(x1, timeout=10)
            batcher.predict(x2, timeout=10)   # evicts x0
            batcher.predict(x0, timeout=10)   # miss again
            stats = batcher.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 4

    def test_mutating_a_result_never_corrupts_the_cache(self):
        x = np.arange(4, dtype=np.float64)
        with MicroBatcher(square_rows, BatchingConfig(cache_size=8)) as batcher:
            first = batcher.predict(x, timeout=10)
            first *= 0.0                          # caller post-processes in place
            second = batcher.predict(x, timeout=10)
            assert batcher.stats()["cache_hits"] == 1
            assert np.array_equal(second, x * x)  # served value untouched
            second += 1.0                         # hits are fresh copies too
            third = batcher.predict(x, timeout=10)
            assert np.array_equal(third, x * x)

    def test_cache_disabled(self):
        x = np.ones(3)
        with MicroBatcher(square_rows, BatchingConfig(cache_size=0)) as batcher:
            batcher.predict(x, timeout=10)
            batcher.predict(x, timeout=10)
            stats = batcher.stats()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0
        assert stats["batches"] == 2

    def test_digest_depends_on_shape_dtype_and_bytes(self):
        x = np.arange(6, dtype=np.float64)
        assert input_digest(x) == input_digest(x.copy())
        assert input_digest(x) != input_digest(x.reshape(2, 3))
        assert input_digest(x) != input_digest(x.astype(np.float32))
        assert input_digest(x) != input_digest(x + 1)

    @pytest.mark.parametrize("array", [
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.arange(4, dtype=np.float32),
        np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2],
    ], ids=["float64-block", "float32-row", "strided-view"])
    def test_digest_is_the_sha256_of_shape_dtype_and_bytes(self, array):
        """The key hashes nothing but the rows, so an unsalted digest keeps
        the bytes a salted one had with an empty salt; a strided view hashes
        as its contiguous copy."""
        contiguous = np.ascontiguousarray(array)
        expected = hashlib.sha256(
            str(contiguous.shape).encode("utf-8")
            + str(contiguous.dtype).encode("utf-8")
            + contiguous.tobytes()).hexdigest()
        assert input_digest(array) == expected
        assert input_digest(contiguous) == expected
