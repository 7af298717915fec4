"""A stdlib JSON-over-HTTP front end for :class:`~repro.serve.Server`.

No web framework — ``http.server.ThreadingHTTPServer`` handles each
connection on its own thread, and those threads all feed the same
micro-batching queue, so concurrent HTTP clients are fused into shared
forwards exactly like in-process callers.

Routes::

    GET  /healthz   -> {"status": "ok", "draining": false, "queue_depth": 0,
                        "workers": {...}, "models": ["name@version", ...]}
    GET  /models    -> registry listing (manifest summaries per version)
    GET  /stats     -> per-model batcher counters
    GET  /describe  -> full server description (models + batching + stats)
    GET  /capacity  -> calibrated capacity model + admission-control state
                       (queue depth, predicted wait, shed counters)
    POST /predict   -> {"model": "name[@version]", "inputs": [[...], ...],
                        "return_probabilities": false,
                        "priority": 0, "deadline_ms": null}

Fleet worker processes additionally expose an admin plane (opt-in via
``make_http_server(..., admin=True)`` — never enabled on a public router
port)::

    POST /admin/load   -> {"name": ..., "path": ..., "version": null,
                           "make_latest": true}   # hot-swap an artifact in
    POST /admin/drain  -> {"draining": true}      # advisory drain flag

The handler serves any app exposing the small ``predict`` / ``health`` /
``models`` / ``stats`` / ``describe`` surface — the in-process
:class:`~repro.serve.Server` and the fleet
:class:`~repro.serve.router.Router` both do, which is what keeps the
client API identical whether one process or a fleet answers.

Error mapping: :data:`ERROR_TABLE` is the serving error protocol, the one
place an exception class is paired with its HTTP status, its traffic
outcome and whether a fleet router retries it on another replica.  The
handler answers every exception a route raises from that table: a
malformed request (bad JSON, wrong feature width or dtype) is a
``ValueError`` and so a 400 — and, because requests are validated before
they are fused, it fails alone without disturbing the valid requests
batched alongside it.  Anything outside the table is a serving failure,
a 500.

What the stdlib parser rejects gets a JSON body too: a malformed request
line or an unsupported HTTP version is **400**, an oversized URI **414**,
too many or too long headers **431**, and any method but GET and POST
**405** (``Allow: GET, POST``; a HEAD answer carries headers only).  A body
that stops short of its ``Content-Length`` is **408** once no byte has
arrived for ``BODY_READ_TIMEOUT_S``, so a stalled client cannot hold a
handler thread.

Lifecycle: :func:`make_http_server` builds a :class:`ServeHTTPServer`.
``.start()`` serves it on a daemon thread and returns it, and ``.stop()``
stops the loop and closes the listening socket.  The loop checks for a
stop every :data:`STOP_POLL_S`, so ``stop()`` returns within about that
long; a request already accepted still gets its answer on its own thread.
A process whose main thread is the endpoint (a fleet worker, the CLI)
calls ``serve_forever()`` itself and ``stop()`` once it returns.
"""

from __future__ import annotations

import json
import math
import socket as socket_module
import threading
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from .batching import DeadlineExceeded, Overloaded, ShuttingDown
from .registry import ModelNotFound
from .server import Server

__all__ = ["make_http_server"]

#: Largest accepted request body (a crude guard against unbounded reads).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Seconds a request body may stall before the answer is 408.
BODY_READ_TIMEOUT_S = 10.0
#: Seconds between the serving loop's checks for ``stop()``: the bound on
#: how long ``stop()`` waits, and an idle server's only wake-ups.
STOP_POLL_S = 0.02


@dataclass(frozen=True)
class ErrorRow:
    """One row of the serving error protocol."""

    #: the exception class a serving app raises (and a router re-raises)
    error: type
    #: the HTTP status the handler answers it with
    status: int
    #: the :class:`~repro.serve.traffic.TrafficGenerator` outcome label
    outcome: str
    #: whether a fleet router tries the request on another replica
    retry: bool


#: The serving error protocol, read by the HTTP handler (exception ->
#: status), the fleet router (a replica's status -> exception, retry) and
#: the traffic harness (exception -> outcome).  The first row whose class
#: the error is an instance of wins.  A 404 is retried only on the owners
#: not yet tried (another may already hold a swapped-in version); a 400 or
#: 504 would fail identically anywhere.
ERROR_TABLE: Tuple[ErrorRow, ...] = (
    ErrorRow(ModelNotFound, 404, "rejected", retry=True),
    ErrorRow(DeadlineExceeded, 504, "expired", retry=False),
    ErrorRow(Overloaded, 429, "overloaded", retry=True),
    ErrorRow(ShuttingDown, 503, "shed", retry=True),
    ErrorRow(ValueError, 400, "rejected", retry=False),
)
#: every other error: a replica-local serving failure
SERVING_FAILURE = ErrorRow(RuntimeError, 500, "error", retry=True)


def row_of(error_class: type) -> ErrorRow:
    """The protocol row an exception class falls under."""
    return next((row for row in ERROR_TABLE
                 if issubclass(error_class, row.error)), SERVING_FAILURE)


def status_row(status: int) -> ErrorRow:
    """The protocol row a replica's error status reads as.  A 413 (a body
    over ``MAX_BODY_BYTES``) is a bad request, like a 400."""
    if status == 413:
        return row_of(ValueError)
    return next((row for row in ERROR_TABLE if row.status == status),
                SERVING_FAILURE)


#: the status of a request for something this server does not have (an
#: unknown path, a disabled surface): the not-found row's
_NOT_FOUND = row_of(ModelNotFound).status


class _ServeHandler(BaseHTTPRequestHandler):
    """Dispatches HTTP requests to the attached :class:`Server`."""

    server_version = "repro-serve/3.0"
    #: the endpoint that accepted the request; its ``app`` answers it
    server: "ServeHTTPServer"
    #: answer a request line too malformed to name its version with a status
    #: line and headers (the stdlib default, HTTP/0.9, sends the body alone)
    default_request_version = "HTTP/1.0"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, payload: dict, status: int = 200,
                   headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._send_json({"error": message}, status=status, headers=headers)

    def _send_exception(self, error: Exception) -> None:
        """Answer an exception a route raised with its protocol row."""
        row = row_of(type(error))
        message = str(error) if row is not SERVING_FAILURE \
            else f"{type(error).__name__}: {error}"
        self._send_error_json(row.status, message)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib parser's rejections, answered as JSON 4xx errors.

        ``http.server`` calls this for a malformed request line (400), an
        HTTP version of 2.0 or later (505, answered 400), an oversized URI
        (414) or header block (431), and a method without a ``do_*``
        handler (501, answered 405).
        """
        self.close_connection = True
        if code == HTTPStatus.NOT_IMPLEMENTED:
            self._send_error_json(
                405, f"method {self.command!r} not allowed; use GET or POST",
                headers=(("Allow", "GET, POST"),))
            return
        if code == HTTPStatus.HTTP_VERSION_NOT_SUPPORTED:
            code = HTTPStatus.BAD_REQUEST
        self._send_error_json(int(code), message or HTTPStatus(code).phrase)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        app = self.server.app
        if self.path == "/healthz":
            self._send_json(app.health())
        elif self.path == "/models":
            self._send_json(app.models())
        elif self.path == "/stats":
            self._send_json(app.stats())
        elif self.path == "/describe":
            self._send_json(app.describe())
        elif self.path == "/capacity":
            capacity = getattr(app, "capacity", None)
            if capacity is None:
                self._send_error_json(
                    _NOT_FOUND, "this app exposes no capacity surface")
            else:
                self._send_json(capacity())
        else:
            self._send_error_json(_NOT_FOUND, f"unknown path {self.path!r}")

    def _read_json_body(self) -> Optional[dict]:
        """Parse the request body as a JSON object.

        Raises ``ValueError`` for a missing or malformed body; answers an
        oversized (413) or stalled (408) one itself and returns ``None``.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ValueError("invalid Content-Length") from None
        if length <= 0:
            raise ValueError("request body required (JSON)")
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit — split the batch")
            return None
        self.connection.settimeout(BODY_READ_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            self._send_error_json(
                408, f"request body stalled for {BODY_READ_TIMEOUT_S:g} s "
                     f"before its {length} bytes arrived")
            return None
        if len(body) < length:
            raise ValueError(f"request body ended after {len(body)} of its "
                             f"{length} bytes")
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError as error:
            # Bad JSON, bad UTF-8, or an integer literal past Python's
            # int-string conversion limit.
            raise ValueError(f"invalid JSON body: {error}") from None
        except RecursionError:
            raise ValueError("invalid JSON body: nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("JSON body must be an object")
        return payload

    @staticmethod
    def _bool_field(payload: dict, key: str, default: bool) -> bool:
        """Read an optional JSON boolean (null reads as absent); any other
        type is a ``ValueError`` — ``bool()`` would read the string
        ``"false"`` as true."""
        value = payload.get(key)
        if value is None:
            return default
        if not isinstance(value, bool):
            raise ValueError(f"{key!r} must be true or false")
        return value

    def _admin(self, app, payload: dict) -> Optional[dict]:
        """The fleet control plane: hot-swap loads and drain flags.  Any
        failure to load is the request's fault (a 400)."""
        if self.path == "/admin/load":
            name = payload.get("name")
            path = payload.get("path")
            if not name or not path:
                raise ValueError("'name' and 'path' are required")
            make_latest = self._bool_field(payload, "make_latest", True)
            try:
                version = app.load(str(name), str(path),
                                   version=payload.get("version"),
                                   make_latest=make_latest)
            except Exception as error:
                raise ValueError(f"{type(error).__name__}: {error}") from error
            return {"name": str(name), "version": version}
        if self.path == "/admin/drain":
            app.set_draining(self._bool_field(payload, "draining", True))
            return app.health()
        self._send_error_json(_NOT_FOUND,
                              f"unknown admin path {self.path!r}")
        return None

    def _predict(self, app, payload: dict) -> dict:
        """Validate a ``/predict`` body and answer it through the app."""
        model = payload.get("model", "default")
        inputs = payload.get("inputs")
        if inputs is None:
            raise ValueError("missing 'inputs'")
        try:
            array = np.asarray(inputs, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(f"inputs are not numeric: {error}") from None
        if array.ndim not in (1, 2) or array.size == 0:
            raise ValueError(f"inputs must be one example or a non-empty "
                             f"batch, got shape {array.shape}")
        # null is treated like an absent field for the optional knobs.
        # JSON admits NaN, Infinity and overflowing literals (1e400), so
        # both numeric knobs must also be finite; a float priority must be
        # integral, and a JSON boolean is not a number.
        priority = payload.get("priority")
        try:
            if isinstance(priority, bool) or (
                    isinstance(priority, float) and not priority.is_integer()):
                raise ValueError(priority)
            priority = 0 if priority is None else int(priority)
        except (TypeError, ValueError):
            raise ValueError("'priority' must be an integer") from None
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            try:
                if isinstance(deadline_ms, bool):
                    raise ValueError(deadline_ms)
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError, OverflowError):
                deadline_ms = math.nan
            if not math.isfinite(deadline_ms):
                raise ValueError("'deadline_ms' must be a finite number of "
                                 "milliseconds")
        return app.predict(
            array, model=str(model),
            return_probabilities=self._bool_field(
                payload, "return_probabilities", False),
            priority=priority, deadline_ms=deadline_ms)

    def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
        app = self.server.app
        admin = self.path.startswith("/admin/")
        if admin and not self.server.admin:
            self._send_error_json(
                _NOT_FOUND, "admin endpoints are not enabled on this server")
            return
        if not admin and self.path != "/predict":
            self._send_error_json(_NOT_FOUND, f"unknown path {self.path!r}")
            return
        try:
            payload = self._read_json_body()
            if payload is None:
                return
            response = (self._admin(app, payload) if admin
                        else self._predict(app, payload))
        except Exception as error:
            self._send_exception(error)
            return
        if response is not None:
            self._send_json(response)


class ServeHTTPServer(ThreadingHTTPServer):
    """The serving endpoint: the stock handler over one app."""

    # The stdlib default listen backlog (5) drops connections under the
    # very request bursts micro-batching exists to absorb.
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, address, app: Server, admin: bool,
                 bind_and_activate: bool = True):
        #: the attached Server (or Router) the handler answers through
        self.app = app
        #: whether the /admin/* control plane is exposed (fleet workers only)
        self.admin = admin
        super().__init__(address, _ServeHandler, bind_and_activate)

    def serve_forever(self) -> None:
        """Serve until :meth:`stop`, checking for it every ``STOP_POLL_S``."""
        super().serve_forever(poll_interval=STOP_POLL_S)

    def start(self) -> "ServeHTTPServer":
        """Serve on a daemon thread; returns ``self``."""
        threading.Thread(target=self.serve_forever, daemon=True,
                         name="repro-serve-http").start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listening socket.  Call it once the
        server is serving (after :meth:`start`, or once ``serve_forever``
        has returned); it does not close the app."""
        self.shutdown()
        self.server_close()


def make_http_server(app: Server, host: str = "127.0.0.1",
                     port: int = 8080,
                     sock: Optional[socket_module.socket] = None,
                     admin: bool = False) -> ServeHTTPServer:
    """Build (but do not start) an HTTP server bound to ``app``.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``httpd.server_address``.  With ``sock``, the server adopts an
    already-bound, already-listening socket instead of binding its own —
    the socket-activation handoff fleet worker processes use: the parent
    binds the replica's port, keeps its copy, and passes a duplicate to
    each (re)spawned worker, so the address survives worker death and
    connections queued in the listen backlog are answered by the
    replacement.  ``admin=True`` exposes the ``/admin/*`` control plane
    (fleet workers only; never on a public router port).  Serve it with
    ``.start()`` and end it with ``.stop()``.
    """
    if sock is None:
        return ServeHTTPServer((host, port), app, admin)
    httpd = ServeHTTPServer(sock.getsockname()[:2], app, admin,
                            bind_and_activate=False)
    httpd.socket.close()    # drop the placeholder; adopt the inherited one
    httpd.socket = sock
    httpd.server_address = sock.getsockname()
    httpd.server_activate()
    return httpd
