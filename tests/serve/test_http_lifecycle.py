"""The serving endpoint's lifecycle: ``make_http_server(...).start()`` and
``.stop()``.

``stop()`` must return promptly — the serving loop checks for it every
``STOP_POLL_S`` — whether the server is idle or a request is in flight, the
request already accepted must still get its answer, and the port must be
closed afterwards.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.serve import make_http_server

#: the slowest ``stop()`` allowed (the stdlib's 0.5 s poll misses it)
STOP_BOUND_S = 0.1


class BlockingApp:
    """An app whose ``predict`` blocks until ``release`` is set."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, inputs, model="default", return_probabilities=False,
                priority=0, deadline_ms=None):
        self.entered.set()
        assert self.release.wait(timeout=10)
        return {"model": model, "predictions": [0]}

    def health(self):
        return {"status": "ok"}


def get_healthz(address) -> int:
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request("GET", "/healthz")
        return connection.getresponse().status
    finally:
        connection.close()


def timed_stop(httpd) -> float:
    started = time.perf_counter()
    httpd.stop()
    return time.perf_counter() - started


def test_idle_stop_is_prompt():
    stops = []
    for _ in range(5):
        httpd = make_http_server(BlockingApp(), port=0).start()
        assert get_healthz(httpd.server_address[:2]) == 200
        stops.append(timed_stop(httpd))
    assert max(stops) < STOP_BOUND_S, f"stop() took {stops}"


def test_stop_with_a_request_in_flight_is_prompt_and_answers_it():
    app = BlockingApp()
    httpd = make_http_server(app, port=0).start()
    answer = {}

    def client():
        connection = http.client.HTTPConnection(*httpd.server_address[:2],
                                                timeout=10)
        try:
            connection.request("POST", "/predict",
                               body=json.dumps({"inputs": [0.0]}),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            answer["status"] = response.status
            answer["body"] = json.loads(response.read())
        finally:
            connection.close()

    thread = threading.Thread(target=client)
    thread.start()
    try:
        assert app.entered.wait(timeout=10)
        elapsed = timed_stop(httpd)
    finally:
        app.release.set()
        thread.join(timeout=10)
    assert elapsed < STOP_BOUND_S, f"stop() took {elapsed:.3f} s"
    assert answer == {"status": 200,
                      "body": {"model": "default", "predictions": [0]}}


def test_stopped_port_refuses_connections():
    httpd = make_http_server(BlockingApp(), port=0).start()
    address = httpd.server_address[:2]
    assert get_healthz(address) == 200
    httpd.stop()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=10).close()
