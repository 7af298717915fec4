"""What the stdlib HTTP parser rejects, answered as a JSON 4xx.

``http.server`` answers a malformed request line, an unsupported method or
HTTP version, an oversized URI and an oversized header block on its own,
before any route runs; a body shorter than its ``Content-Length`` used to
block the handler thread forever.  Every case is sent over a raw socket to
both apps the handler serves, a :class:`~repro.serve.Server` and a
:class:`~repro.serve.Router` in front of it.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.serve import http as serve_http

APPS = ["server", "router"]


def exchange(address, data: bytes, half_close: bool = False,
             timeout: float = 10.0):
    """Send raw bytes and read the whole answer: ``(status, headers, body)``.

    ``half_close`` shuts the write side after sending, as a client that
    gives up on its body would.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("iso-8859-1").split("\r\n")
    version, status = status_line.split(" ")[:2]
    assert version.startswith("HTTP/")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status), headers, body


def json_error(headers, body) -> str:
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(body)
    return json.loads(body)["error"]


@pytest.mark.parametrize("app", APPS)
class TestStdlibRejections:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_other_methods_are_405(self, http_apps, app, method):
        status, headers, body = exchange(
            http_apps.address(app),
            f"{method} /predict HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: 2\r\n\r\n{{}}".encode())
        assert status == 405
        assert headers["allow"] == "GET, POST"
        assert method in json_error(headers, body)

    def test_head_is_405_with_headers_only(self, http_apps, app):
        status, headers, body = exchange(
            http_apps.address(app), b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 405
        assert headers["allow"] == "GET, POST"
        assert headers["content-type"] == "application/json"
        assert body == b""

    def test_http_3_is_400(self, http_apps, app):
        status, headers, body = exchange(http_apps.address(app),
                                         b"GET /healthz HTTP/3.0\r\n\r\n")
        assert status == 400
        assert "HTTP version" in json_error(headers, body)

    def test_malformed_request_line_is_400(self, http_apps, app):
        status, headers, body = exchange(http_apps.address(app),
                                         b"GARBAGE\r\n\r\n")
        assert status == 400
        assert "GARBAGE" in json_error(headers, body)

    def test_long_uri_is_414(self, http_apps, app):
        status, headers, body = exchange(
            http_apps.address(app),
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert status == 414
        assert json_error(headers, body)

    def test_too_many_headers_is_431(self, http_apps, app):
        status, headers, body = exchange(
            http_apps.address(app),
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(150)) + b"\r\n")
        assert status == 431
        assert "headers" in json_error(headers, body)

    def test_stalled_body_is_408(self, http_apps, app, monkeypatch):
        monkeypatch.setattr(serve_http, "BODY_READ_TIMEOUT_S", 0.3)
        started = time.perf_counter()
        status, headers, body = exchange(
            http_apps.address(app),
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n"
            b"\r\n{\"inputs\"")
        assert status == 408
        assert "stalled" in json_error(headers, body)
        assert time.perf_counter() - started < 5.0

    def test_body_cut_short_by_the_client_is_400(self, http_apps, app):
        status, headers, body = exchange(
            http_apps.address(app),
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n"
            b"\r\n{\"inputs\"", half_close=True)
        assert status == 400
        assert "ended after 9 of its 100 bytes" in json_error(headers, body)
