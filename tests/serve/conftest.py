"""Fixtures for the serving tests.

Two kinds of servables are used: hand-built :class:`EndModel`s (fast,
deterministic — most batching/registry tests) and one genuinely trained
pipeline artifact (the offline-vs-served bit-identity tests, which must
exercise the real train → export → serve path).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backbones.backbone import BackboneSpec, ClassificationModel, Encoder
from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModel, EndModelConfig
from repro.ensemble import TagletEnsemble
from repro.modules import MultiTaskConfig, MultiTaskModule
from repro.modules.base import ModelTaglet
from repro.modules.zsl_kg import ZslKgTaglet
from repro.serve import (BatchingConfig, Router, Server, export_end_model,
                         export_ensemble, load_servable, make_http_server)

SPEC = BackboneSpec(name="resnet50", input_dim=24, hidden_dims=(48, 32),
                    feature_dim=32)
NUM_CLASSES = 7
CLASS_NAMES = [f"class_{i}" for i in range(NUM_CLASSES)]


class GatedModel:
    """A recording stand-in model whose first call blocks on an event.

    Lets a test park the batcher's drain thread inside a forward while it
    stages the queue, making batch-composition scenarios deterministic.
    """

    def __init__(self):
        self.calls = []
        self.release = threading.Event()
        self.entered = threading.Event()
        self._first = True

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        self.calls.append(np.array(batch, copy=True))
        if self._first:
            self._first = False
            self.entered.set()
            assert self.release.wait(timeout=10)
        return batch.copy()

    @property
    def call_sizes(self):
        return [len(call) for call in self.calls]


def make_end_model(seed: int = 0, num_classes: int = NUM_CLASSES) -> EndModel:
    """A structurally faithful end model with reproducible random weights."""
    encoder = Encoder(SPEC, rng=np.random.default_rng(seed))
    model = ClassificationModel(encoder, num_classes,
                                rng=np.random.default_rng(seed + 1))
    return EndModel(model)


def make_model(seed: int, num_classes: int = NUM_CLASSES) -> ClassificationModel:
    encoder = Encoder(SPEC, rng=np.random.default_rng(seed))
    return ClassificationModel(encoder, num_classes,
                               rng=np.random.default_rng(seed + 1))


def make_ensemble(num_members: int = 3, with_zsl: bool = True,
                  seed: int = 100) -> TagletEnsemble:
    """A structurally faithful taglet ensemble (ModelTaglets + one ZSL-KG)."""
    taglets = []
    plain = num_members - (1 if with_zsl else 0)
    for i in range(plain):
        taglets.append(ModelTaglet(f"member_{i}",
                                   make_model(seed + 10 * i)))
    if with_zsl:
        taglets.append(ZslKgTaglet("zsl_kg", make_model(seed + 10 * plain),
                                   logit_scale=3.0))
    return TagletEnsemble(taglets)


@pytest.fixture()
def end_model() -> EndModel:
    return make_end_model()


@pytest.fixture()
def artifact_dir(tmp_path, end_model) -> str:
    path = str(tmp_path / "artifact")
    export_end_model(end_model, path, class_names=CLASS_NAMES,
                     metrics={"test_accuracy": 0.91})
    return path


@pytest.fixture()
def servable(artifact_dir):
    return load_servable(artifact_dir)


@pytest.fixture()
def features() -> np.ndarray:
    return np.random.default_rng(7).normal(size=(64, SPEC.input_dim))


@pytest.fixture()
def ensemble() -> TagletEnsemble:
    return make_ensemble()


@pytest.fixture()
def ensemble_dir(tmp_path, ensemble) -> str:
    path = str(tmp_path / "ensemble-artifact")
    export_ensemble(ensemble, path, class_names=CLASS_NAMES,
                    metrics={"test_accuracy": 0.87})
    return path


@pytest.fixture()
def servable_ensemble(ensemble_dir):
    return load_servable(ensemble_dir)


@pytest.fixture(scope="module")
def trained_export(tmp_path_factory, tiny_workspace, tiny_backbone):
    """One real pipeline run exported through the Controller hooks.

    Returns ``(result, split, path)`` — the offline result, its task split,
    and the exported end-model artifact directory.  The taglet ensemble is
    exported next to it, at ``path + "-ensemble"``.
    """
    split = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=tiny_workspace.scads,
                           backbone=tiny_backbone,
                           wanted_num_related_class=3,
                           images_per_related_class=8)
    path = str(tmp_path_factory.mktemp("served") / "fmd-endmodel")
    config = ControllerConfig(end_model=EndModelConfig(epochs=8),
                              export_path=path,
                              export_ensemble_path=path + "-ensemble",
                              seed=0)
    controller = Controller(modules=[MultiTaskModule(MultiTaskConfig(epochs=4))],
                            config=config)
    result = controller.run(task)
    return result, split, path


class Endpoints:
    """Apps behind the stock HTTP handler on ephemeral ports, stopped
    together: ``endpoints(app, admin=False)`` starts one and returns its
    ``(host, port)``."""

    def __init__(self):
        self._httpds = []

    def __call__(self, app, admin: bool = False):
        httpd = make_http_server(app, port=0, admin=admin).start()
        self._httpds.append(httpd)
        return httpd.server_address[:2]

    def stop(self) -> None:
        for httpd in self._httpds:
            httpd.stop()
        self._httpds.clear()


@pytest.fixture()
def serve():
    """Serve apps for one test; yields ``serve(app, admin=False) ->
    (host, port)`` and stops every endpoint it started at teardown."""
    endpoints = Endpoints()
    yield endpoints
    endpoints.stop()


class HttpApps:
    """A :class:`Server` and a :class:`Router` in front of it, each behind
    the stock HTTP handler on an ephemeral port (``address("server")``,
    ``address("router")``): the two apps one handler serves."""

    def __init__(self, artifact: str):
        self.server = Server(batching=BatchingConfig(max_batch_size=8,
                                                     max_latency_ms=1))
        self.server.load("default", artifact)
        self.router = Router()
        self._endpoints = Endpoints()
        self._addresses = {"server": self._endpoints(self.server)}
        self.router.add_replica("replica-0", *self.address("server"))
        self._addresses["router"] = self._endpoints(self.router)

    def address(self, app: str):
        return self._addresses[app]

    def close(self) -> None:
        self._endpoints.stop()
        self.router.close()
        self.server.close()


@pytest.fixture(scope="module")
def http_apps(tmp_path_factory):
    """A Server-backed and a Router-backed HTTP endpoint over one artifact."""
    path = str(tmp_path_factory.mktemp("http-apps") / "artifact")
    export_end_model(make_end_model(), path, class_names=CLASS_NAMES)
    apps = HttpApps(path)
    yield apps
    apps.close()
