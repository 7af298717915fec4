"""Tests for the capacity model: calibration, prediction, inversion,
and model-driven admission control (the 429 path end to end)."""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (AdmissionController, BatchingConfig, CapacityModel,
                         Overloaded, SLO, Server, ServiceModel,
                         calibrate_service_model)
from repro.serve.capacity import (LATENCY_ERROR_BOUND,
                                  THROUGHPUT_ERROR_BOUND)

BASE_S = 0.002
PER_ROW_S = 0.0002


def sleepy_predict(rows: np.ndarray) -> np.ndarray:
    """A forward with an exactly known affine cost law (sleep releases the
    GIL like a BLAS call, so timings are clean even on one core)."""
    rows = np.atleast_2d(rows)
    time.sleep(BASE_S + PER_ROW_S * len(rows))
    return np.full((len(rows), 3), 1.0 / 3.0)


@pytest.fixture(scope="module")
def service() -> ServiceModel:
    return calibrate_service_model(sleepy_predict, input_dim=4,
                                   batch_sizes=(1, 4, 16), repeats=3,
                                   probe_requests=64)


class TestCalibration:
    def test_recovers_the_affine_law(self, service):
        assert service.base_s == pytest.approx(BASE_S, rel=0.5)
        assert service.per_row_s == pytest.approx(PER_ROW_S, rel=0.5)

    def test_forward_prediction_matches_measurement(self, service):
        for batch_size, measured in service.measurements.items():
            assert service.forward_s(batch_size) == pytest.approx(
                measured, rel=0.35)

    def test_overhead_is_measured_and_small(self, service):
        # Dispatch overhead is real but far below the forward cost.
        assert 0.0 <= service.overhead_s < BASE_S

    def test_as_dict_is_json_ready(self, service):
        payload = json.loads(json.dumps(service.as_dict()))
        assert payload["base_s"] == service.base_s
        assert payload["per_row_s"] == service.per_row_s
        assert payload["overhead_s"] == service.overhead_s
        assert payload["measurements"] == {
            str(k): v for k, v in service.measurements.items()}


class TestCapacityModel:
    def model(self, **kwargs) -> CapacityModel:
        kwargs.setdefault("cpus", 1)
        return CapacityModel(ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S,
                                          overhead_s=1e-5), **kwargs)

    def test_batching_raises_capacity(self):
        model = self.model()
        small = model.capacity(BatchingConfig(max_batch_size=1))
        large = model.capacity(BatchingConfig(max_batch_size=64))
        # Amortizing the per-call base cost is the whole point of batching.
        assert large > 2 * small

    def test_replicas_beyond_cpus_add_nothing(self):
        config = BatchingConfig(max_batch_size=8)
        one = self.model(replicas=1, cpus=1).capacity(config)
        two = self.model(replicas=2, cpus=1).capacity(config)
        assert two == pytest.approx(one)

    def test_replicas_scale_capacity_given_cores(self):
        doubled = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), replicas=2,
            cpus=8)
        single = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), replicas=1,
            cpus=8)
        config = BatchingConfig(max_batch_size=8)
        assert doubled.capacity(config) > 1.5 * single.capacity(config)

    def test_unsaturated_prediction(self):
        model = self.model()
        config = BatchingConfig(max_batch_size=16, max_latency_ms=2.0)
        capacity = model.capacity(config)
        prediction = model.predict(config, arrival_rate=capacity * 0.3)
        assert prediction.throughput == pytest.approx(capacity * 0.3)
        assert prediction.shed_rate == 0.0
        assert prediction.utilization == pytest.approx(0.3)
        assert 1.0 <= prediction.batch_fill <= 16.0
        assert 0 < prediction.p50_ms <= prediction.p99_ms
        assert math.isfinite(prediction.p99_ms)

    def test_saturated_prediction_sheds_the_excess(self):
        model = self.model()
        config = BatchingConfig(max_batch_size=16, max_latency_ms=2.0)
        capacity = model.capacity(config)
        prediction = model.predict(config, arrival_rate=capacity * 2.0)
        assert prediction.throughput == pytest.approx(capacity)
        assert prediction.shed_rate == pytest.approx(0.5, abs=0.01)
        # Unbounded queue under overload: latency diverges.
        assert prediction.p99_ms == float("inf")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            self.model().predict(BatchingConfig(), 0.0)

    def test_error_bounds_are_documented(self):
        description = self.model().describe()
        assert description["error_bounds"]["throughput"] \
            == THROUGHPUT_ERROR_BOUND
        assert description["error_bounds"]["latency"] == LATENCY_ERROR_BOUND


class TestAutotune:
    def model(self) -> CapacityModel:
        return CapacityModel(ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S,
                                          overhead_s=1e-5), cpus=1)

    def test_returned_config_meets_the_slo(self):
        model = self.model()
        slo = SLO(p99_ms=50.0)
        config, prediction = model.autotune(slo, arrival_rate=300.0)
        assert prediction.p99_ms <= slo.p99_ms
        assert prediction.shed_rate == 0.0
        # The prediction really is the returned config's operating point.
        again = model.predict(config, 300.0)
        assert again.p99_ms == pytest.approx(prediction.p99_ms)

    def test_prefers_cheaper_configs(self):
        model = self.model()
        lax, _ = model.autotune(SLO(p99_ms=10_000.0), arrival_rate=10.0)
        # A laughably lax SLO at trivial load needs only the smallest
        # batch the grid offers.
        assert lax.max_batch_size == 1

    def test_tight_slo_needs_bigger_batches_than_lax(self):
        model = self.model()
        # At high load a batch of 1 cannot keep up: the grid must move.
        config, _ = model.autotune(SLO(p99_ms=100.0), arrival_rate=1500.0)
        assert config.max_batch_size > 1

    def test_impossible_slo_raises_with_best_achievable(self):
        with pytest.raises(ValueError, match="no config"):
            self.model().autotune(SLO(p99_ms=0.001), arrival_rate=100.0)

    def test_min_throughput_objective(self):
        model = self.model()
        config, prediction = model.autotune(
            SLO(min_throughput=1000.0), arrival_rate=100.0)
        assert prediction.capacity >= 1000.0


class TestAdmissionController:
    def controller(self, max_delay_ms=50.0) -> AdmissionController:
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        return AdmissionController(
            model, BatchingConfig(max_batch_size=16, max_latency_ms=2.0),
            max_delay_ms=max_delay_ms)

    def test_empty_queue_admits(self):
        controller = self.controller()
        controller.admit(queue_depth=0)
        assert controller.admitted == 1
        assert controller.shed == 0

    def test_deep_queue_sheds_with_429_semantics(self):
        controller = self.controller(max_delay_ms=10.0)
        depth = int(controller.capacity_req_per_sec)  # ~1 s of backlog
        with pytest.raises(Overloaded, match="admission budget"):
            controller.admit(queue_depth=depth)
        assert controller.shed == 1

    def test_hopeless_deadline_sheds_before_queueing(self):
        controller = self.controller(max_delay_ms=None)
        depth = int(controller.capacity_req_per_sec)  # ~1 s predicted wait
        with pytest.raises(Overloaded, match="deadline"):
            controller.admit(queue_depth=depth, deadline_ms=50.0)

    def test_generous_deadline_is_admitted(self):
        controller = self.controller(max_delay_ms=None)
        controller.admit(queue_depth=10, deadline_ms=60_000.0)
        assert controller.admitted == 1

    def test_already_expired_deadline_is_not_shed_as_retryable(self):
        """A spent deadline must NOT surface as 429 — a retry cannot help
        a stale request.  Admission passes it through so the batcher's
        submit-time expiry raises the honest 504 (`DeadlineExceeded`)."""
        controller = self.controller(max_delay_ms=None)
        controller.admit(queue_depth=0, deadline_ms=-1.0)   # no Overloaded
        controller.admit(queue_depth=0, deadline_ms=0.0)
        assert controller.admitted == 2
        assert controller.shed == 0

    def test_predicted_wait_is_linear_in_depth(self):
        controller = self.controller()
        one = controller.predicted_wait_ms(1)
        assert controller.predicted_wait_ms(10) == pytest.approx(10 * one)

    def test_slo_derives_the_budget(self):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        controller = AdmissionController(
            model, BatchingConfig(max_batch_size=16, max_latency_ms=2.0),
            slo=SLO(p99_ms=100.0))
        assert controller.max_delay_ms is not None
        assert 0 < controller.max_delay_ms < 100.0


class TestServerIntegration:
    def test_submit_passes_the_admission_gate(self, servable):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        admission = AdmissionController(model, BatchingConfig(),
                                        max_delay_ms=1000.0)
        with Server(admission=admission) as server:
            server.register("default", servable)
            rows = np.zeros(servable.input_dim)
            server.submit(rows).result(timeout=10)
        assert admission.admitted == 1

    def test_forced_shed_raises_overloaded_synchronously(self, servable):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        # A negative budget sheds everything: the degenerate end of the
        # dial, which makes the refusal path deterministic to test.
        admission = AdmissionController(model, BatchingConfig(),
                                        max_delay_ms=-1.0)
        with Server(admission=admission) as server:
            server.register("default", servable)
            with pytest.raises(Overloaded):
                server.submit(np.zeros(servable.input_dim))
        assert admission.shed == 1
        # The shed request never reached the batcher.
        stats = server.stats()
        assert all(entry["requests"] == 0 for entry in stats.values())

    def test_capacity_payload_reports_model_and_gate(self, servable):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        admission = AdmissionController(model, BatchingConfig(),
                                        max_delay_ms=25.0)
        with Server(admission=admission) as server:
            server.register("default", servable)
            payload = server.capacity()
        assert payload["queue_depth"] == 0
        assert payload["model"]["service"]["base_s"] == pytest.approx(BASE_S)
        assert payload["admission"]["max_delay_ms"] == 25.0
        assert payload["capacity_req_per_sec"] > 0

    def test_capacity_payload_without_model_is_explicit(self, servable):
        with Server() as server:
            server.register("default", servable)
            payload = server.capacity()
        assert payload["model"] is None
        assert payload["admission"] is None


class TestCapacityOverHttp:
    @pytest.fixture()
    def gated_server(self, servable, serve):
        model = CapacityModel(
            ServiceModel(base_s=BASE_S, per_row_s=PER_ROW_S), cpus=1)
        admission = AdmissionController(model, BatchingConfig(),
                                        max_delay_ms=-1.0)  # shed everything
        server = Server(admission=admission)
        server.register("default", servable)
        host, port = serve(server)
        yield f"http://{host}:{port}", server
        server.close()

    def test_get_capacity_route(self, gated_server):
        url, _ = gated_server
        with urllib.request.urlopen(f"{url}/capacity", timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["admission"]["max_delay_ms"] == -1.0
        assert payload["model"]["error_bounds"]["throughput"] \
            == THROUGHPUT_ERROR_BOUND

    def test_shed_request_maps_to_http_429(self, gated_server, servable):
        url, _ = gated_server
        body = json.dumps(
            {"inputs": [0.0] * servable.input_dim}).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/predict", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 429
            assert "shedding" in json.loads(error.read())["error"]
