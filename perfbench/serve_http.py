"""``serve_http``: the deployed topology, driven closed-loop over HTTP.

``python -m repro.serve <end-model> --fleet 1 --port 0`` runs as a
subprocess: a routing front end plus one worker process.  Two clients
(one per core of the reference host) each POST one distinct row to
``/predict`` and wait for the answer before sending the next, so there are
no cache hits and transport dominates.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from common import ROOT, SRC, Context, median, percentile, timed_setups
from serving import Artifacts, fresh_rows
from spans import Tracer

CLIENTS = 2
QUANTUM = 32
_READY = re.compile(r"serving \d+ model\(s\) on http://([\d.]+):(\d+)")
_WORKER = re.compile(r"^\s+\S+ on ([\d.]+):(\d+) serving")


class CountingConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` that counts the TCP connections it opens."""

    opened = 0
    _lock = threading.Lock()

    def connect(self) -> None:
        super().connect()
        with CountingConnection._lock:
            CountingConnection.opened += 1


class ServeProcess:
    """The serving CLI as a subprocess, stopped and reaped by ``close``."""

    def __init__(self, artifact: str, timeout: float = 120.0):
        # The environment, BLAS / OpenMP thread settings included, is this
        # process's own.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", artifact,
             "--fleet", "1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(ROOT), start_new_session=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.front: Optional[Tuple[str, int]] = None
        self.worker: Optional[Tuple[str, int]] = None
        deadline = time.monotonic() + timeout
        try:
            while self.front is None:
                line = self.lines.get(timeout=max(0.0, deadline
                                                  - time.monotonic()))
                if line is None:
                    raise RuntimeError("serving CLI exited:\n"
                                       + "".join(self.output))
                if (match := _WORKER.match(line)) is not None:
                    self.worker = (match.group(1), int(match.group(2)))
                if (match := _READY.search(line)) is not None:
                    self.front = (match.group(1), int(match.group(2)))
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)   # graceful: closes the fleet
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=20)
        self._reader.join(timeout=20)
        self.proc.stdout.close()


def post(address: Tuple[str, int], row: np.ndarray,
         timeout: float = 30.0) -> Tuple[int, Optional[int]]:
    """POST one row to ``/predict`` on a fresh connection."""
    connection = CountingConnection(*address, timeout=timeout)
    try:
        body = json.dumps({"inputs": [row.tolist()]})
        connection.request("POST", "/predict", body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    if response.status != 200:
        return response.status, None
    return 200, json.loads(payload)["predictions"][0]


def get_json(address: Tuple[str, int], path: str) -> dict:
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


class ClosedLoop:
    """``CLIENTS`` threads, each sending its next row after its last answer."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self._next = 0
        self._lock = threading.Lock()
        #: (row index, start, end, status, predicted class)
        self.records: List[Tuple[int, float, float, int, Optional[int]]] = []

    def _take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            if index >= len(self.rows):
                raise RuntimeError("closed loop ran out of distinct rows")
            return index

    def run(self, address, duration: float,
            tracer: Optional[Tracer] = None, span: str = "") -> List[tuple]:
        first = len(self.records)
        deadline = time.perf_counter() + duration

        def client() -> None:
            while time.perf_counter() < deadline:
                index = self._take()
                start = time.perf_counter()
                try:
                    status, label = post(address, self.rows[index])
                except (OSError, http.client.HTTPException):
                    status, label = 0, None
                end = time.perf_counter()
                self.records.append((index, start, end, status, label))
                if tracer is not None:
                    tracer.record(span, start, end, request_id=index)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.records[first:]


def _latencies_ms(records) -> np.ndarray:
    return np.array([(end - start) * 1e3
                     for _, start, end, status, _ in records if status == 200])


def _answered_per_s(records) -> float:
    wall = max(r[2] for r in records) - min(r[1] for r in records)
    return sum(1 for r in records if r[3] == 200) / wall


def _check(ctx: Context, loop: ClosedLoop, artifacts: Artifacts,
           front) -> dict:
    """Every answer is right; returns the front end's router counters."""
    from repro.serve import load_servable
    from repro.serve.batching import run_at_quantum

    records = loop.records
    ctx.checks.expect("serve_http.all_200",
                      all(r[3] == 200 for r in records),
                      f"statuses {sorted({r[3] for r in records})}")
    answered = [r for r in records if r[3] == 200]
    if answered:
        servable = load_servable(artifacts.end_model)
        rows = loop.rows[[r[0] for r in answered]]
        offline = run_at_quantum(servable.predict_proba, rows,
                                 QUANTUM).argmax(axis=1)
        ctx.checks.expect("serve_http.labels_match_offline",
                          np.array_equal(offline, [r[4] for r in answered]),
                          "served labels differ from offline argmax")
    router = get_json(front, "/stats")["_router"]
    ctx.checks.expect("serve_http.no_router_retries",
                      router["retries"] == 0 and router["failovers"] == 0,
                      f"router counters {router}")
    return router


def _in_process_predict_ms(artifacts: Artifacts, rows: np.ndarray,
                           count: int, tracer: Tracer) -> float:
    """``Server.predict`` with one caller and the CLI's batching config."""
    from repro.serve import BatchingConfig, Server

    with Server(batching=BatchingConfig()) as server:
        server.load("default", artifacts.end_model)
        server.predict(rows[0])
        samples = []
        for index in range(count):
            with tracer.span("serve.server.predict", request_id=index):
                start = time.perf_counter()
                server.predict(rows[index])
                samples.append(time.perf_counter() - start)
    return percentile(samples, 50) * 1e3


def run(ctx: Context, tracer: Tracer, artifacts: Artifacts,
        probe: bool = False) -> None:
    """The full workload, or (``probe``) a short pass feeding only the
    per-layer metrics of another workload's traced run."""
    from repro.serve import load_servable

    dtype = load_servable(artifacts.end_model).dtype
    rng = np.random.default_rng(ctx.seed + 2)
    budget = (0.5 if ctx.short else 1.0) if probe else ctx.seconds
    rows = fresh_rows(rng, artifacts.test,
                      int(budget * 3000) + 1000).astype(dtype)
    loop = ClosedLoop(rows)
    server = None
    if probe:
        server = ServeProcess(artifacts.end_model)
    else:
        def setup():
            nonlocal server
            if server is not None:
                server.close()
            server = ServeProcess(artifacts.end_model)

        timed_setups(ctx, setup, normalise=False)
    # The closed loop runs in repeats and reports medians over them, so one
    # burst of host noise moves one repeat, not the result.
    repeats = 1 if probe else (3 if ctx.trace else 5)
    try:
        loop.run(server.front, 0.2)   # connections, threads, first forwards
        warm = len(loop.records)
        connects_before = CountingConnection.opened
        main_s = budget / 2 if ctx.trace else budget
        timed = [loop.run(server.front, main_s / repeats)
                 for _ in range(repeats)]
        connects = CountingConnection.opened - connects_before
        if ctx.trace:
            traced = loop.run(server.front, budget / 4, tracer,
                              "serve.http.post")
            direct = loop.run(server.worker, budget / 4, tracer,
                              "serve.http.worker_post")
        router = _check(ctx, loop, artifacts, server.front)
    finally:
        server.close()
    ctx.attempted += len(loop.records) - warm
    ctx.failed += sum(1 for r in loop.records[warm:] if r[3] != 200)

    every = [record for records in timed for record in records]
    latency = _latencies_ms(every)
    if not probe:
        p50 = median([percentile(_latencies_ms(r), 50) for r in timed])
        p99 = median([percentile(_latencies_ms(r), 99) for r in timed])
        throughput = median([_answered_per_s(r) for r in timed])
        failed = sum(1 for r in every if r[3] != 200)
        ctx.report.update({
            "latency_p50_ms": (p50, "ms"),
            "latency_p99_ms": (p99, "ms"),
            "throughput_rps": (throughput, "1/s"),
            "throughput_per_s": (throughput, "1/s"),
            "error_rate": (failed / len(every), "ratio"),
            "requests": (len(every), "count"),
        })
    if not ctx.trace:
        return
    worker = _latencies_ms(direct)
    ctx.layers.update({
        "serve.http.worker_rtt_ms.p50": percentile(worker, 50),
        "serve.http.worker_rtt_ms.p99": percentile(worker, 99),
        "serve.router.hop_ms": percentile(latency, 50)
        - percentile(worker, 50),
        "serve.server.predict_ms": _in_process_predict_ms(
            artifacts, rows[-1000:], 100 if ctx.short else 300, tracer),
        "serve.http.connects_per_req": connects / len(every),
        "serve.router.retries": float(router["retries"]),
        "serve.router.failovers": float(router["failovers"]),
    })
    if not probe:
        ctx.layers["trace.overhead_pct"] = 100.0 * (
            percentile(_latencies_ms(traced), 50) - percentile(latency, 50)
        ) / percentile(latency, 50)
