"""Regression tests for the router's deadline/backoff accounting.

The bugs these pin down: retry backoff used to sleep unconditionally — a
request with ``deadline_ms=50`` could burn 20+40 ms asleep and be retried
already-expired — and a replica answering 200 *after* the client's
deadline used to be returned as a success.  Both now surface the honest
``DeadlineExceeded`` (HTTP 504): backoff sleeps are capped at the
remaining deadline and fail fast before sleeping when none remains, and
late 200s are suppressed.  This file also covers the 429 retry path
(admission sheds are retryable; a fully-shedding fleet surfaces
``Overloaded``, not a routing error) — together with
``test_traffic.py``, the tier-1 assertion that no request ever completes
successfully after its own deadline, on the routed path.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (DeadlineExceeded, NoHealthyReplica, Overloaded,
                         Router, RouterConfig, make_http_server)

INPUT = np.zeros(4)


class _StubApp:
    """A minimal replica app: answers ``predict`` per configured behavior.

    Serves through the stock HTTP handler, so the wire behavior (status
    codes, error bodies) is exactly what a real replica would produce.
    """

    def __init__(self, behavior: str = "ok", delay_s: float = 0.0):
        self.behavior = behavior
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, inputs, model="default", return_probabilities=False,
                timeout=None, priority=0, deadline_ms=None):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.behavior == "shed":
            raise Overloaded("stub shedding: over admission budget")
        return {"model": "default", "version": "1", "predictions": [0],
                "labels": ["class_0"]}

    # the rest of the app surface, for health probes and stats merges
    def health(self):
        return {"status": "ok", "draining": False, "queue_depth": 0,
                "workers": {"alive": 1, "expected": 1}, "models": ["default@1"]}

    def models(self):
        return {"default": {"latest": "1", "versions": {}}}

    def stats(self):
        return {}

    def describe(self):
        return {}


@pytest.fixture()
def serve_stub():
    """Start stub replicas on ephemeral ports; yields the factory."""
    httpds = []

    def start(app: _StubApp):
        httpd = make_http_server(app, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        httpds.append(httpd)
        return httpd.server_address[:2]

    yield start
    for httpd in httpds:
        httpd.shutdown()


def dead_port() -> int:
    """A port that was just listening and no longer is."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestBackoffDeadlineCap:
    def test_no_replica_fails_fast_within_the_deadline(self):
        """10 attempts x 200 ms uncapped backoff would sleep ~2 s; the
        50 ms deadline must cut that to a prompt 504."""
        router = Router(RouterConfig(max_attempts=10, retry_backoff_ms=200,
                                     retry_backoff_cap_ms=400))
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            router.predict(INPUT, deadline_ms=50.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"backoff ignored the deadline ({elapsed:.2f}s)"
        router.close()

    def test_dead_replica_fails_fast_within_the_deadline(self):
        router = Router(RouterConfig(max_attempts=10, retry_backoff_ms=200,
                                     retry_backoff_cap_ms=400,
                                     request_timeout=5.0))
        router.add_replica("dead", "127.0.0.1", dead_port(),
                           models=["default"])
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            router.predict(INPUT, deadline_ms=60.0)
        assert time.perf_counter() - started < 1.0
        router.close()

    def test_expired_deadline_raises_before_any_sleep(self):
        router = Router(RouterConfig(max_attempts=5, retry_backoff_ms=500))
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            router.predict(INPUT, deadline_ms=-1.0)
        assert time.perf_counter() - started < 0.4
        router.close()

    def test_no_sleep_after_the_last_attempt(self):
        """Backoff spaces attempts; it never follows the last one.  A single
        attempt with nothing to route to fails at once, not after 500 ms."""
        router = Router(RouterConfig(max_attempts=1, retry_backoff_ms=500))
        started = time.perf_counter()
        with pytest.raises(NoHealthyReplica):
            router.predict(INPUT)
        assert time.perf_counter() - started < 0.25
        router.close()

    def test_no_deadline_keeps_the_old_retry_patience(self):
        """Without a deadline the bounded backoff still runs its course —
        the fix must not make deadline-less requests give up early."""
        router = Router(RouterConfig(max_attempts=3, retry_backoff_ms=20,
                                     retry_backoff_cap_ms=40))
        with pytest.raises(Exception) as excinfo:
            router.predict(INPUT)
        assert not isinstance(excinfo.value, DeadlineExceeded)
        router.close()


class TestLateResponseSuppression:
    def test_200_past_deadline_surfaces_504(self, serve_stub):
        """A replica that answers successfully but *late* must not be
        reported as a success: no request ever completes after its own
        deadline, router path included."""
        host, port = serve_stub(_StubApp("ok", delay_s=0.15))
        router = Router(RouterConfig(max_attempts=2, retry_backoff_ms=1,
                                     request_timeout=10.0))
        router.add_replica("slow", host, port, models=["default"])
        with pytest.raises(DeadlineExceeded, match="late"):
            router.predict(INPUT, deadline_ms=60.0)
        assert router.stats()["_router"]["late_responses"] == 1
        router.close()

    def test_in_time_response_is_served(self, serve_stub):
        host, port = serve_stub(_StubApp("ok"))
        router = Router(RouterConfig(max_attempts=2, retry_backoff_ms=1,
                                     request_timeout=10.0))
        router.add_replica("fast", host, port, models=["default"])
        response = router.predict(INPUT, deadline_ms=10_000.0)
        assert response["predictions"] == [0]
        assert router.stats()["_router"]["late_responses"] == 0
        router.close()


class TestAdmissionShedFailover:
    def test_shedding_replica_fails_over_to_healthy_one(self, serve_stub):
        shedder = _StubApp("shed")
        healthy = _StubApp("ok")
        router = Router(RouterConfig(max_attempts=4, retry_backoff_ms=1,
                                     request_timeout=10.0))
        for replica_id, app in (("a", shedder), ("b", healthy)):
            host, port = serve_stub(app)
            router.add_replica(replica_id, host, port, models=["default"])
        # Whatever the picker's order, every request must land: a 429 is
        # retryable and the healthy replica absorbs the failover.
        for _ in range(8):
            assert router.predict(INPUT)["predictions"] == [0]
        assert healthy.calls == 8        # every success came from the healthy one
        router.close()

    def test_fleetwide_shedding_surfaces_overloaded(self, serve_stub):
        host, port = serve_stub(_StubApp("shed"))
        router = Router(RouterConfig(max_attempts=3, retry_backoff_ms=1,
                                     request_timeout=10.0))
        router.add_replica("a", host, port, models=["default"])
        with pytest.raises(Overloaded, match="shedding"):
            router.predict(INPUT)
        router.close()
