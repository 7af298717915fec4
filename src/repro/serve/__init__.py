"""``repro.serve`` — from trained pipeline to answered request.

The deployment layer of the reproduction: versioned artifact export of the
distilled end model *and* the full taglet ensemble
(:mod:`~repro.serve.artifact`, schema v2), a hot-swappable
:class:`ModelRegistry`, a dynamic micro-batching engine with priority /
deadline scheduling (:mod:`~repro.serve.batching`), and a :class:`Server` front end with a
stdlib JSON-over-HTTP endpoint plus a ``python -m repro.serve`` CLI.

Typical lifecycle::

    result = Controller().run(task)                       # train
    export_end_model(result, "artifacts/fmd")             # export the student
    export_ensemble(result, "artifacts/fmd-ensemble")     # ...or the ensemble
    server = Server()
    server.load("fmd", "artifacts/fmd")                   # register v1
    server.load("fmd-ensemble", "artifacts/fmd-ensemble")
    server.predict(x, model="fmd@latest")                 # query
    server.predict(x, model="fmd-ensemble", priority=5, deadline_ms=50)
"""

from .artifact import (ArtifactError, SCHEMA_VERSION, Servable,
                       ServableEnsemble, ServableModel, export_end_model,
                       export_ensemble, load_servable, read_manifest)
from .batching import (BatcherStats, BatchingConfig, DeadlineExceeded,
                       MicroBatcher, Overloaded, ShuttingDown, input_digest)
from .capacity import (AdmissionController, CapacityModel, CapacityPrediction,
                       LATENCY_ERROR_BOUND, SLO, ServiceModel,
                       THROUGHPUT_ERROR_BOUND, calibrate_service_model)
from .fleet import (FleetConfig, ReplicaSpec, ServingFleet, replicated_specs,
                    sharded_specs)
from .http import make_http_server
from .registry import ModelNotFound, ModelRegistry, parse_reference
from .router import NoHealthyReplica, Router, RouterConfig
from .server import Server
from .traffic import (TrafficGenerator, TrafficReport, adversarial_trace,
                      compare_prediction, poisson_trace)

__all__ = [
    "SCHEMA_VERSION", "ArtifactError", "Servable", "ServableModel",
    "ServableEnsemble", "export_end_model", "export_ensemble",
    "load_servable", "read_manifest",
    "BatchingConfig", "BatcherStats", "DeadlineExceeded", "MicroBatcher",
    "Overloaded", "ShuttingDown", "input_digest",
    "ModelRegistry", "ModelNotFound", "parse_reference",
    "Server", "make_http_server",
    "Router", "RouterConfig", "NoHealthyReplica",
    "ServingFleet", "FleetConfig", "ReplicaSpec", "replicated_specs",
    "sharded_specs",
    "AdmissionController", "CapacityModel", "CapacityPrediction",
    "ServiceModel", "SLO", "calibrate_service_model",
    "THROUGHPUT_ERROR_BOUND", "LATENCY_ERROR_BOUND",
    "TrafficGenerator", "TrafficReport", "adversarial_trace",
    "compare_prediction", "poisson_trace",
]
