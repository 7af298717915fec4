"""Tests for the traffic harness: trace generators, open-loop replay,
outcome accounting, and the observed-vs-predicted comparison.

The tier-1 half of the deadline promise lives here: a replay with
deadlines asserts **zero deadline-violating responses** on the in-process
path (the router path is asserted in ``test_router_deadline.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import (AdmissionController, BatchingConfig, CapacityModel,
                         MicroBatcher, Server, ServiceModel,
                         TrafficGenerator, adversarial_trace,
                         compare_prediction, poisson_trace)
from repro.serve.traffic import OUTCOMES

BASE_S = 0.001
PER_ROW_S = 0.0001


def sleepy_predict(rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(rows)
    time.sleep(BASE_S + PER_ROW_S * len(rows))
    return np.full((len(rows), 3), 1.0 / 3.0)


def fast_config(**kwargs) -> BatchingConfig:
    kwargs.setdefault("max_batch_size", 16)
    kwargs.setdefault("max_latency_ms", 2.0)
    kwargs.setdefault("cache_size", 0)
    return BatchingConfig(**kwargs)


class TestTraces:
    def test_poisson_rate_and_ordering(self):
        trace = poisson_trace(rate=200.0, duration_s=2.0, seed=3)
        assert np.all(np.diff(trace) >= 0)
        assert np.all((trace >= 0) & (trace < 2.0))
        assert len(trace) == pytest.approx(400, rel=0.3)

    def test_poisson_is_seed_deterministic(self):
        assert np.array_equal(poisson_trace(100.0, 1.0, seed=5),
                              poisson_trace(100.0, 1.0, seed=5))

    def test_poisson_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poisson_trace(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_trace(10.0, -1.0)

    def test_adversarial_bunches_arrivals(self):
        trace = adversarial_trace(rate=200.0, duration_s=2.0,
                                  spike_every_s=0.5, seed=4)
        assert len(trace) == pytest.approx(400, rel=0.3)
        # Nearly every gap is ~0 (inside a spike); the largest gap is the
        # inter-spike silence.
        gaps = np.diff(trace)
        assert np.median(gaps) < 1e-3
        assert gaps.max() > 0.3


class TestOpenLoopReplay:
    def test_all_served_below_capacity(self):
        with MicroBatcher(sleepy_predict, fast_config()) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(poisson_trace(150.0, 1.0, seed=1))
        assert report.sent == report.ok
        assert report.shed_rate() == 0.0
        assert report.throughput() > 0
        assert 0 < report.p50_ms() <= report.p99_ms()
        summary = report.summary()
        assert summary["deadline_violations"] == 0
        assert sum(summary[outcome] for outcome in OUTCOMES) == report.sent

    def test_outcomes_partition_the_trace(self):
        """Every arrival lands in exactly one outcome bucket — the
        report-level mirror of the batcher's counter-conservation law."""
        with MicroBatcher(sleepy_predict, fast_config()) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(
                adversarial_trace(300.0, 0.6, spike_every_s=0.2, seed=2),
                deadline_ms=40.0)
        counts = {outcome: report.count(outcome) for outcome in OUTCOMES}
        assert sum(counts.values()) == report.sent
        assert not report.errors

    def test_zero_deadline_violations_in_process(self):
        """Tier-1 half of the deadline promise: under adversarial load with
        deadlines most requests expire — and **none** of the successful
        ones completes after its own deadline."""
        config = fast_config(max_batch_size=4, max_latency_ms=1.0)
        with MicroBatcher(sleepy_predict, config) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(
                adversarial_trace(500.0, 0.5, spike_every_s=0.25, seed=3),
                deadline_ms=30.0)
        assert report.count("expired") > 0          # the load really hurt
        assert report.deadline_violations() == 0    # and nothing lied
        # Expired requests surface as DeadlineExceeded, not generic errors.
        assert report.count("error") == 0

    def test_doomed_deadline_expires_everything(self):
        with MicroBatcher(sleepy_predict, fast_config()) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(poisson_trace(100.0, 0.3, seed=4),
                                   deadline_ms=0.0001)
        assert report.ok == 0
        assert report.count("expired") == report.sent

    def test_server_target_resolves_input_dim_from_registry(self, servable):
        with Server(batching=fast_config()) as server:
            server.register("default", servable)
            generator = TrafficGenerator(server, seed=0)
            report = generator.run(poisson_trace(80.0, 0.5, seed=5))
            stats = server.stats()
        assert report.ok == report.sent
        served = sum(entry["served"] for entry in stats.values())
        assert served == report.sent

    def test_admission_sheds_surface_as_overloaded(self, servable):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        admission = AdmissionController(model, fast_config(),
                                        max_delay_ms=-1.0)  # shed everything
        with Server(batching=fast_config(), admission=admission) as server:
            server.register("default", servable)
            generator = TrafficGenerator(server, seed=0)
            report = generator.run(poisson_trace(100.0, 0.3, seed=6))
        assert report.count("overloaded") == report.sent
        assert report.shed_rate() == 1.0

    def test_empty_trace_is_rejected(self):
        with MicroBatcher(sleepy_predict, fast_config()) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4)
            with pytest.raises(ValueError, match="empty"):
                generator.run([])


class TestComparePrediction:
    def test_model_agrees_with_observation_on_its_home_turf(self):
        """A Poisson replay at moderate utilization must land inside the
        documented error bounds — the same check the smoke harness runs,
        kept cheap here (sleep-based service, one second of traffic)."""
        service = ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S,
                               overhead_s=2e-5)
        model = CapacityModel(service, cpus=1)
        config = fast_config()
        rate = 0.35 * model.capacity(config)
        with MicroBatcher(sleepy_predict, config) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(poisson_trace(rate, 1.5, seed=7))
        prediction = model.predict(config, rate)
        errors = compare_prediction(report, prediction)
        assert errors["throughput_rel_error"] < 0.35
        assert errors["p99_rel_error"] < 0.75
        assert errors["shed_rate_observed"] == 0.0

    def test_unobservable_metrics_compare_as_nan(self):
        service = ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S)
        model = CapacityModel(service, cpus=1)
        config = fast_config()
        with MicroBatcher(sleepy_predict, config) as batcher:
            generator = TrafficGenerator(batcher, input_dim=4, seed=0)
            report = generator.run(poisson_trace(50.0, 0.2, seed=8),
                                   deadline_ms=0.0001)  # nothing completes
        errors = compare_prediction(report, model.predict(config, 50.0))
        assert np.isnan(errors["p50_rel_error"])
        assert np.isnan(errors["p99_rel_error"])
