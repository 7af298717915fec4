"""The serving error protocol, one row at a time.

:data:`repro.serve.http.ERROR_TABLE` pairs each error a serving app raises
with its HTTP status, its traffic outcome and whether a fleet router tries
the request on another replica.  Three readers use it: the HTTP handler
(exception -> status), the :class:`~repro.serve.Router` (a replica's status
-> exception, retry) and the :class:`~repro.serve.TrafficGenerator`
(exception -> outcome).  Every test here is parametrized over the table's
rows plus the serving-failure fallback, so a reader that drifts from the
table fails here.
"""

from __future__ import annotations

import http.client
import json
from concurrent.futures import Future

import numpy as np
import pytest

from repro.serve import (ModelNotFound, NoHealthyReplica, Router,
                         RouterConfig, Server, TrafficGenerator)
from repro.serve.http import (ERROR_TABLE, SERVING_FAILURE, row_of,
                              status_row)

ROWS = list(ERROR_TABLE) + [SERVING_FAILURE]
IDS = [f"{row.status}-{row.error.__name__}" for row in ROWS]
INPUT = np.zeros(4)


class RaisingServer(Server):
    """A real :class:`Server` whose every prediction raises one error."""

    def __init__(self, error_class: type):
        super().__init__()
        self.error_class = error_class
        self.calls = 0

    def predict(self, *args, **kwargs):
        self.calls += 1
        raise self.error_class(f"stub {self.error_class.__name__}")


class FailingTarget:
    """A traffic target whose requests fail with one error, either at
    ``submit`` (a synchronous refusal) or through the returned future."""

    def __init__(self, error_class: type, synchronous: bool):
        self.error_class = error_class
        self.synchronous = synchronous

    def submit(self, inputs, priority=0, deadline_ms=None):
        error = self.error_class(f"stub {self.error_class.__name__}")
        if self.synchronous:
            raise error
        future = Future()
        future.set_exception(error)
        return future


def post_predict(address):
    """POST one valid ``/predict`` body: ``(status, content type, body)``."""
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request("POST", "/predict",
                           body=json.dumps({"inputs": INPUT.tolist()}),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return (response.status, response.getheader("Content-Type"),
                json.loads(response.read()))
    finally:
        connection.close()


def fleet_of_two(serve, error_class):
    """A router over two replicas that both raise ``error_class``."""
    replicas = [RaisingServer(error_class) for _ in range(2)]
    router = Router(RouterConfig(max_attempts=3, retry_backoff_ms=1,
                                 retry_backoff_cap_ms=1, request_timeout=10.0))
    for index, replica in enumerate(replicas):
        host, port = serve(replica)
        router.add_replica(f"r{index}", host, port, models=["default"])
    return router, replicas


def test_statuses_are_distinct():
    statuses = [row.status for row in ROWS]
    assert len(set(statuses)) == len(statuses)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
class TestProtocolRow:
    def test_status_reads_back_as_its_row(self, row):
        assert status_row(row.status) == row
        assert row_of(row.error) == row

    def test_handler_answers_the_row_status_as_json(self, serve, row):
        status, content_type, body = post_predict(
            serve(RaisingServer(row.error)))
        assert status == row.status
        assert content_type == "application/json"
        assert f"stub {row.error.__name__}" in body["error"]

    def test_router_reads_the_status_back(self, serve, row):
        """A non-retried row raises after one call; a retried row tries
        both replicas.  What surfaces is the row's error itself, or, once
        every attempt was retried away, ``NoHealthyReplica`` caused by it."""
        router, replicas = fleet_of_two(serve, row.error)
        with pytest.raises(Exception) as excinfo:
            router.predict(INPUT)
        router.close()
        raised = excinfo.value
        assert sum(replica.calls for replica in replicas) == \
            (2 if row.retry else 1)
        if isinstance(raised, NoHealthyReplica):
            assert row.retry
            raised = raised.__cause__
        assert isinstance(raised, row.error)
        assert f"stub {row.error.__name__}" in str(raised)

    def test_router_edge_answers_what_the_router_raised(self, serve, row):
        """Through a router's own HTTP port the client sees the replica's
        status whenever the router surfaced the row's error (400, 504, 404
        once every owner answered it, 429 once every replica shed), and
        ``NoHealthyReplica``'s 500 otherwise."""
        router, _ = fleet_of_two(serve, row.error)
        with pytest.raises(Exception) as excinfo:
            router.predict(INPUT)
        expected = (SERVING_FAILURE.status
                    if isinstance(excinfo.value, NoHealthyReplica)
                    else row.status)
        status, content_type, _ = post_predict(serve(router))
        router.close()
        assert status == expected
        assert content_type == "application/json"

    @pytest.mark.parametrize("synchronous", [True, False],
                             ids=["refused", "failed"])
    def test_traffic_outcome_is_the_row_outcome(self, row, synchronous):
        generator = TrafficGenerator(FailingTarget(row.error, synchronous),
                                     input_dim=4, dispatch_threads=1)
        report = generator.run([0.0, 0.001, 0.002], timeout_s=10.0)
        assert report.outcomes == [row.outcome] * 3
        assert bool(report.errors) == (row.outcome == "error")


class TestNotFoundText:
    """A 404's ``error`` is the registry's message itself, not its repr:
    a replica answers it unquoted and a router hop passes it on as is."""

    @pytest.fixture()
    def message(self):
        with pytest.raises(ModelNotFound) as excinfo:
            Server().registry.resolve("default")
        return excinfo.value.args[0]

    def test_server_edge(self, serve, message):
        status, _, body = post_predict(serve(Server()))
        assert status == row_of(ModelNotFound).status
        assert body["error"] == message

    def test_router_edge(self, serve, message):
        router = Router(RouterConfig(max_attempts=3, retry_backoff_ms=1,
                                     retry_backoff_cap_ms=1,
                                     request_timeout=10.0))
        for index in range(2):
            router.add_replica(f"r{index}", *serve(Server()),
                               models=["default"])
        with pytest.raises(ModelNotFound) as excinfo:
            router.predict(INPUT)
        status, _, body = post_predict(serve(router))
        router.close()
        assert str(excinfo.value) == message
        assert status == row_of(ModelNotFound).status
        assert body["error"] == message
