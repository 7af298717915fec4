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

Error mapping: a malformed request (bad JSON, wrong feature width or
dtype) is the client's fault and returns **400** — and, because requests
are validated before they are fused, it fails alone without disturbing the
valid requests batched alongside it.  A request whose ``deadline_ms``
passes while it queues returns **504**.  Unknown models are **404**; a
server that is shutting down answers **503** (retryable — a fleet router
fails the request over to a healthy replica); a request shed by
model-driven admission control answers **429** (retryable — the request
was fine, this replica just predicted it could not serve it in budget);
only genuine serving failures return **500**.
"""

from __future__ import annotations

import json
import math
import socket as socket_module
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from .batching import DeadlineExceeded, Overloaded, ShuttingDown
from .registry import ModelNotFound
from .server import Server

__all__ = ["make_http_server", "start_http_server"]

#: Largest accepted request body (a crude guard against unbounded reads).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _ServeHandler(BaseHTTPRequestHandler):
    """Dispatches HTTP requests to the attached :class:`Server`."""

    server_version = "repro-serve/3.0"
    #: the attached Server (or Router) instance (set by :func:`make_http_server`)
    serve_app: Server
    #: whether the /admin/* control plane is exposed (fleet workers only)
    admin_enabled: bool = False

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        app = type(self).serve_app
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
                    404, "this app exposes no capacity surface")
            else:
                self._send_json(capacity())
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def _read_json_body(self) -> Optional[dict]:
        """Parse the request body as JSON; answers the error itself (and
        returns ``None``) when the body is missing or malformed."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send_error_json(400, "invalid Content-Length")
            return None
        if length <= 0:
            self._send_error_json(400, "request body required (JSON)")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit — split the batch")
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as error:
            # Bad JSON, bad UTF-8, or an integer literal past Python's
            # int-string conversion limit.
            self._send_error_json(400, f"invalid JSON body: {error}")
            return None
        except RecursionError:
            self._send_error_json(400, "invalid JSON body: nested too deeply")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "JSON body must be an object")
            return None
        return payload

    def _bool_field(self, payload: dict, key: str,
                    default: bool) -> Optional[bool]:
        """Read an optional JSON boolean (null reads as absent); answers a
        400 itself (and returns ``None``) for any other type — ``bool()``
        would read the string ``"false"`` as true."""
        value = payload.get(key)
        if value is None:
            return default
        if not isinstance(value, bool):
            self._send_error_json(400, f"{key!r} must be true or false")
            return None
        return value

    def _do_admin(self, payload: dict) -> None:
        """The fleet control plane: hot-swap loads and drain flags."""
        app = type(self).serve_app
        if self.path == "/admin/load":
            name = payload.get("name")
            path = payload.get("path")
            if not name or not path:
                self._send_error_json(400, "'name' and 'path' are required")
                return
            make_latest = self._bool_field(payload, "make_latest", True)
            if make_latest is None:
                return
            try:
                version = app.load(str(name), str(path),
                                   version=payload.get("version"),
                                   make_latest=make_latest)
            except Exception as error:
                self._send_error_json(400, f"{type(error).__name__}: {error}")
                return
            self._send_json({"name": str(name), "version": version})
        elif self.path == "/admin/drain":
            draining = self._bool_field(payload, "draining", True)
            if draining is None:
                return
            app.set_draining(draining)
            self._send_json(app.health())
        else:
            self._send_error_json(404, f"unknown admin path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
        app = type(self).serve_app
        if self.path.startswith("/admin/"):
            if not type(self).admin_enabled:
                self._send_error_json(
                    404, "admin endpoints are not enabled on this server")
                return
            payload = self._read_json_body()
            if payload is not None:
                self._do_admin(payload)
            return
        if self.path != "/predict":
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        payload = self._read_json_body()
        if payload is None:
            return

        model = payload.get("model", "default")
        inputs = payload.get("inputs")
        if inputs is None:
            self._send_error_json(400, "missing 'inputs'")
            return
        try:
            array = np.asarray(inputs, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as error:
            self._send_error_json(400, f"inputs are not numeric: {error}")
            return
        if array.ndim not in (1, 2) or array.size == 0:
            self._send_error_json(
                400, f"inputs must be one example or a non-empty batch, "
                     f"got shape {array.shape}")
            return
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
            self._send_error_json(400, "'priority' must be an integer")
            return
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            try:
                if isinstance(deadline_ms, bool):
                    raise ValueError(deadline_ms)
                deadline_ms = float(deadline_ms)
            except (TypeError, ValueError, OverflowError):
                deadline_ms = math.nan
            if not math.isfinite(deadline_ms):
                self._send_error_json(
                    400, "'deadline_ms' must be a finite number of "
                         "milliseconds")
                return
        return_probabilities = self._bool_field(
            payload, "return_probabilities", False)
        if return_probabilities is None:
            return
        try:
            response = app.predict(
                array, model=str(model),
                return_probabilities=return_probabilities,
                priority=priority, deadline_ms=deadline_ms)
        except ModelNotFound as error:
            self._send_error_json(404, str(error))
            return
        except DeadlineExceeded as error:
            self._send_error_json(504, str(error))
            return
        except Overloaded as error:
            # Retryable: admission control shed the request before it
            # queued — another replica (or a later retry) can serve it.
            self._send_error_json(429, str(error))
            return
        except ShuttingDown as error:
            # Retryable: the process is going away, the request was fine.
            self._send_error_json(503, str(error))
            return
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        except Exception as error:  # a serving failure, not a client error
            self._send_error_json(500, f"{type(error).__name__}: {error}")
            return
        self._send_json(response)


def make_http_server(app: Server, host: str = "127.0.0.1",
                     port: int = 8080,
                     sock: Optional[socket_module.socket] = None,
                     admin: bool = False) -> ThreadingHTTPServer:
    """Build (but do not start) an HTTP server bound to ``app``.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``httpd.server_address``.  With ``sock``, the server adopts an
    already-bound, already-listening socket instead of binding its own —
    the socket-activation handoff fleet worker processes use: the parent
    binds the replica's port, keeps its copy, and passes a duplicate to
    each (re)spawned worker, so the address survives worker death and
    connections queued in the listen backlog are answered by the
    replacement.  ``admin=True`` exposes the ``/admin/*`` control plane
    (fleet workers only; never on a public router port).
    """
    handler = type("BoundServeHandler", (_ServeHandler,),
                   {"serve_app": app, "admin_enabled": admin})
    # The stdlib default listen backlog (5) drops connections under the
    # very request bursts micro-batching exists to absorb.
    server_cls = type("ServeHTTPServer", (ThreadingHTTPServer,),
                      {"request_queue_size": 128, "daemon_threads": True})
    if sock is None:
        return server_cls((host, port), handler)
    httpd = server_cls(sock.getsockname()[:2], handler, bind_and_activate=False)
    httpd.socket.close()    # drop the placeholder; adopt the inherited one
    httpd.socket = sock
    httpd.server_address = sock.getsockname()
    httpd.server_activate()
    return httpd


def start_http_server(app: Server, host: str = "127.0.0.1",
                      port: int = 8080) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the endpoint on a background thread; returns (httpd, thread).

    Stop with ``httpd.shutdown()`` followed by ``app.close()``.
    """
    httpd = make_http_server(app, host=host, port=port)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True,
                              name="repro-serve-http")
    thread.start()
    return httpd, thread
