"""Tests of the benchmark itself: every workload emits every declared metric
with its unit and runs every output check; the open-loop generator charges
a stall to the requests that were due during it."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import SpeedProbe  # noqa: E402
from loadgen import run_open_loop  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TRAIN_CHECKS = {"train.replay_fallbacks_zero", "train.accuracy_above_chance"}
OPEN_CHECKS = {"serve_open.bit_identical_to_offline",
               "serve_open.requests_conserved",
               "serve_open.no_failed_requests"}
HTTP_CHECKS = {"serve_http.all_200", "serve_http.labels_match_offline",
               "serve_http.no_router_retries"}
CHECKS = {
    "train_cold": TRAIN_CHECKS | {"train.passes_deterministic",
                                  "train_cold.pretrain_cache_one_entry"},
    "train_sweep": TRAIN_CHECKS | {"train.passes_deterministic",
                                   "train_sweep.pretrain_cache_warm"},
    "serve_open": TRAIN_CHECKS | OPEN_CHECKS,
    "serve_http": TRAIN_CHECKS | HTTP_CHECKS,
}
#: every traced run also replays training stage by stage and probes both
#: serving paths
TRACED_CHECKS = TRAIN_CHECKS | OPEN_CHECKS | HTTP_CHECKS \
    | {"train.staged_matches_controller_run"}
#: the workload-specific metrics each workload reports before its result line
REPORTS = {
    "train_cold": {"setup_s", "peak_rss_mb", "train_s", "end_model_accuracy"},
    "train_sweep": {"setup_s", "peak_rss_mb", "train_s",
                    "end_model_accuracy"},
    "serve_open": {"setup_s", "peak_rss_mb", "latency_p50_ms.low",
                   "latency_p99_ms.low", "latency_p50_ms.high",
                   "latency_p99_ms.high", "capacity_rps", "error_rate"},
    "serve_http": {"setup_s", "peak_rss_mb", "latency_p50_ms",
                   "latency_p99_ms", "throughput_rps", "error_rate"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_and_check(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) \
            and np.isfinite(entry["value"]), (metric, entry)
    checks = {line.split()[1].rstrip(":"): line.split()[2]
              for line in lines if line.startswith("check ")}
    expected = CHECKS[workload] | (TRACED_CHECKS if trace else set())
    assert expected <= set(checks), expected - set(checks)
    assert all(status == "ok" for status in checks.values()), checks
    reported = {line.split()[2] for line in lines
                if line.startswith("report ")}
    assert REPORTS[workload] <= reported, REPORTS[workload] - reported
    assert any(line.startswith("host {") for line in lines)


def test_traced_run_writes_spans():
    # Relies on the traced serve_http run above having written its trace.
    path = ROOT / ".perfbench" / "trace-serve_http.json"
    if not path.exists():
        assert run_bench("serve_http", 1).returncode == 0
    trace = json.loads(path.read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"serve.http.post", "serve.http.worker_post",
            "serve.server.submit", "serve.request", "controller.run",
            "modules.zsl_kg.train"} <= names
    assert trace["meta"]["host"]["nproc"] >= 1
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("train_cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["layers"]
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    workloads = set(WORKLOADS)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["workloads"]) <= workloads
        assert set(entry["end_to_end"]) <= end_to_end


def test_speed_probe_measures_work_and_restores_the_handler():
    def work(n):
        total = 0
        for i in range(n):
            total += i * i
        return total

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as small:
        work(200_000)
    with SpeedProbe() as large:
        work(800_000)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert small.samples and large.samples
    assert 0 < small.seconds < large.seconds
    # Four times the work reads about four times as long.
    assert 2.5 < large.seconds / small.seconds < 6


def test_stall_is_charged_to_the_requests_after_it():
    stall_s, stalled = 0.05, 100
    offsets = np.arange(400) * 0.001          # one request per millisecond

    def send(index):
        if index == stalled:
            time.sleep(stall_s)
        future = Future()
        future.set_result(index)
        return future

    phase = run_open_loop(offsets, send, duration=0.4)
    assert phase.failed == 0
    latency = phase.done - phase.due
    # Before the stall the generator keeps its schedule.
    assert np.median(latency[:stalled]) < 0.005
    # Every request due during the stall waits for the stall to end: its
    # latency counts from its scheduled instant, not from its late send.
    stall_end = phase.due[stalled] + stall_s
    during = (phase.due > phase.due[stalled]) & (phase.due < stall_end - 0.005)
    assert during.sum() >= 40
    waited = stall_end - phase.due[during]
    assert np.all(latency[during] >= waited - 0.002)
    assert np.percentile(phase.late_ms, 99) >= 20
