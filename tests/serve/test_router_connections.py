"""The router's hop to a replica: one fresh connection per request.

Replicas answer in HTTP/1.0 and close the socket after every response, so
``ReplicaHandle.request`` opens a connection per call and closes it before
returning — N hops are N accepts on the replica, and no socket outlives its
request.  The router's public port goes through the same request handler as
a replica, so malformed knobs are refused there before any hop is made.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.serve import Router, make_http_server
from repro.serve import router as router_module
from repro.serve.router import ReplicaHandle

from .test_router_deadline import _StubApp


@pytest.fixture()
def counted_replica():
    """A stub replica on an ephemeral port that counts accepted sockets."""
    app = _StubApp()
    httpd = make_http_server(app, port=0)
    accepts = []
    get_request = httpd.get_request

    def counting_get_request():
        accepted = get_request()
        accepts.append(accepted[1])
        return accepted

    httpd.get_request = counting_get_request
    httpd.start()
    yield app, httpd.server_address[:2], accepts
    httpd.stop()


def test_each_hop_opens_and_closes_one_connection(counted_replica,
                                                  monkeypatch):
    _, (host, port), accepts = counted_replica
    opened = []

    class TrackedConnection(http.client.HTTPConnection):
        def connect(self):
            super().connect()
            opened.append(self)

    monkeypatch.setattr(router_module.http.client, "HTTPConnection",
                        TrackedConnection)
    handle = ReplicaHandle("r0", host, port)
    hops = 5
    for _ in range(hops):
        status, payload = handle.request("GET", "/healthz", timeout=10)
        assert status == 200 and payload["status"] == "ok"
    assert len(accepts) == hops
    assert len(opened) == hops
    assert all(connection.sock is None for connection in opened)


def _post_to_router(replica_address, body):
    """POST ``body`` to a router in front of one replica; return the status
    and the decoded JSON answer."""
    router = Router()
    router.add_replica("r0", *replica_address, models=["default"])
    httpd = make_http_server(router, port=0).start()
    try:
        connection = http.client.HTTPConnection(*httpd.server_address[:2],
                                                timeout=10)
        connection.request("POST", "/predict", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
    finally:
        httpd.stop()
        router.close()
    return response.status, payload


@pytest.mark.parametrize("knob,value", [
    ("priority", "1e400"), ("priority", "Infinity"), ("priority", "NaN"),
    ("priority", "1.5"), ("deadline_ms", "NaN"), ("deadline_ms", "Infinity"),
    ("priority", "true"), ("deadline_ms", "true"),
    ("return_probabilities", '"false"'), ("return_probabilities", "1"),
])
def test_router_refuses_non_finite_knobs_without_a_hop(counted_replica, knob,
                                                       value):
    app, address, _ = counted_replica
    status, payload = _post_to_router(
        address, f'{{"inputs": [0.0, 0.0, 0.0, 0.0], "{knob}": {value}}}')
    assert status == 400
    assert knob in payload["error"]
    assert app.calls == 0


def test_router_refuses_an_overflowing_integer_input_without_a_hop(
        counted_replica):
    # The float64 conversion of a 400-digit integer raised OverflowError
    # past the handler, and the client saw a dropped connection.
    app, address, _ = counted_replica
    status, payload = _post_to_router(
        address, '{"inputs": [[1' + "0" * 400 + ', 0.0, 0.0, 0.0]]}')
    assert status == 400
    assert "numeric" in payload["error"]
    assert app.calls == 0


def test_router_refuses_a_deeply_nested_body_without_a_hop(counted_replica):
    # json.loads raised RecursionError on the deep body, and ValueError on
    # an integer literal past Python's 4300-digit limit, past the handler;
    # the client saw a dropped connection.
    app, address, _ = counted_replica
    for body, fragment in [
            ('{"inputs": ' + "[" * 5000 + "]" * 5000 + "}",
             "nested too deeply"),
            ('{"inputs": [[1]], "priority": ' + "9" * 5000 + "}",
             "invalid JSON body")]:
        status, payload = _post_to_router(address, body)
        assert status == 400
        assert fragment in payload["error"]
    assert app.calls == 0
