"""``python -m repro.serve`` — stand up the JSON endpoint over artifacts.

Serve one or more exported end-model artifacts::

    python -m repro.serve artifacts/fmd
    python -m repro.serve --model fmd=artifacts/fmd --model demo=artifacts/demo \\
        --port 8080 --max-batch-size 64 --max-latency-ms 5
    python -m repro.serve artifacts/fmd --fleet 4        # 4 worker processes
    python -m repro.serve --model a=... --model b=... --fleet 2 --shard

With ``--fleet N`` the models are served by N **worker processes** behind a
routing front end (health checks, retry-on-death, respawn) instead of one
in-process server — same port, same client API, but throughput scales past
the GIL on multi-core hosts.  ``--shard`` partitions the models across the
fleet instead of replicating all of them on every worker.

With ``--demo``, a small synthetic workspace is built, the TAGLETS pipeline
is trained end to end, the end model *and* the taglet ensemble are exported
to a temporary directory, and the server starts on both (``default`` and
``ensemble``) — the zero-to-served smoke path CI exercises.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Tuple

from .artifact import export_end_model, export_ensemble
from .batching import BatchingConfig
from .fleet import FleetConfig, ServingFleet, replicated_specs, sharded_specs
from .http import make_http_server
from .server import Server


def _parse_models(args: argparse.Namespace) -> List[Tuple[str, str]]:
    models: List[Tuple[str, str]] = []
    for spec in args.model or []:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise SystemExit(f"--model expects name=path, got {spec!r}")
        models.append((name, path))
    taken = {name for name, _ in models}
    for path in args.artifacts:
        # The first positional artifact is served as 'default' (what a bare
        # POST /predict queries) unless a --model already claimed that name.
        name = "default" if "default" not in taken else f"model{len(models)}"
        taken.add(name)
        models.append((name, path))
    return models


def _train_demo_artifact(directory: str, seed: int = 0) -> Tuple[str, str]:
    """Train a quick small-workspace pipeline and export it (the CI smoke).

    Returns ``(end_model_path, ensemble_path)`` — both deployment shapes
    (the distilled student and the voted ensemble) from one run.
    """
    import os

    from ..core import Controller, ControllerConfig, Task
    from ..distill import EndModelConfig
    from ..kg import GraphSpec
    from ..modules import MultiTaskConfig, MultiTaskModule
    from ..synth import WorldSpec
    from ..workspace import Workspace, WorkspaceSpec

    print("demo: building a reduced workspace and training TAGLETS...",
          flush=True)
    spec = WorkspaceSpec(graph=GraphSpec(num_filler_concepts=300, seed=seed),
                         world=WorldSpec(seed=seed),
                         scads_images_per_concept=30, seed=seed)
    workspace = Workspace(spec)
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"),
                           wanted_num_related_class=3,
                           images_per_related_class=8)
    config = ControllerConfig(end_model=EndModelConfig(epochs=20),
                              dtype="float32", seed=seed)
    result = Controller(modules=[MultiTaskModule(MultiTaskConfig(epochs=10))],
                        config=config).run(task)
    accuracy = result.end_model_accuracy(split.test_features, split.test_labels)
    end_path = export_end_model(result, os.path.join(directory, "end-model"),
                                metrics={"test_accuracy": accuracy})
    print(f"demo: exported end model (test accuracy {accuracy:.3f}) "
          f"to {end_path}", flush=True)
    ensemble_accuracy = result.ensemble_accuracy(split.test_features,
                                                 split.test_labels)
    ensemble_path = export_ensemble(
        result, os.path.join(directory, "ensemble"),
        metrics={"test_accuracy": ensemble_accuracy})
    print(f"demo: exported {len(result.taglets)}-member ensemble "
          f"(test accuracy {ensemble_accuracy:.3f}) to {ensemble_path}",
          flush=True)
    return end_path, ensemble_path


def _attach_capacity(server: Server, model_name: str,
                     args: argparse.Namespace) -> None:
    """Calibrate, optionally autotune the batching knobs, attach admission.

    Runs the calibration probe against the first loaded model, prints the
    fitted service law, then — with ``--autotune-p99-ms`` — swaps the
    server's batching config for the cheapest one whose *predicted* p99
    meets the SLO at ``--autotune-rate`` (batchers are created lazily, so
    this is safe before traffic starts).  With ``--admission-max-delay-ms``
    it attaches the admission gate that turns hopeless requests into
    retryable 429s.  Everything lands on ``GET /capacity``.
    """
    from .capacity import (AdmissionController, CapacityModel, SLO,
                           calibrate_service_model)

    _, _, servable = server.registry.resolve(model_name)
    print(f"calibrating service model against {model_name!r}...", flush=True)
    service = calibrate_service_model(servable.predict_proba,
                                      input_dim=servable.input_dim,
                                      dtype=servable.dtype)
    print(f"  s(B) = {service.base_s * 1e3:.3f} ms "
          f"+ {service.per_row_s * 1e3:.4f} ms/row, "
          f"dispatch overhead {service.overhead_s * 1e6:.1f} us/req",
          flush=True)
    model = CapacityModel(service)
    if args.autotune_p99_ms is not None:
        slo = SLO(p99_ms=args.autotune_p99_ms)
        try:
            tuned, prediction = model.autotune(
                slo, arrival_rate=args.autotune_rate,
                base_config=server.batching)
        except ValueError as error:
            raise SystemExit(f"autotune: {error}")
        server.batching = tuned
        print(f"autotuned for p99 <= {args.autotune_p99_ms:.1f} ms at "
              f"{args.autotune_rate:.0f} req/s: "
              f"max_batch_size={tuned.max_batch_size} "
              f"max_latency_ms={tuned.max_latency_ms} "
              f"(predicted p99 {prediction.p99_ms:.1f} ms, capacity "
              f"{prediction.capacity:.0f} req/s)", flush=True)
    if args.admission_max_delay_ms is not None:
        server.set_admission(AdmissionController(
            model, server.batching,
            max_delay_ms=args.admission_max_delay_ms))
        print(f"admission control armed: shedding (429) beyond "
              f"{args.admission_max_delay_ms:.1f} ms predicted wait",
              flush=True)
    else:
        server.capacity_model = model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve exported TAGLETS end models over JSON/HTTP.")
    parser.add_argument("artifacts", nargs="*",
                        help="artifact directories (first is served as 'default')")
    parser.add_argument("--model", action="append", metavar="NAME=PATH",
                        help="serve PATH under NAME (repeatable)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--max-batch-size", type=int, default=32,
                        help="rows fused into one forward (default 32)")
    parser.add_argument("--max-latency-ms", type=float, default=2.0,
                        help="max time the first request waits for a batch")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="LRU prediction-cache entries (0 disables)")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="serve with N worker processes behind a routing "
                             "front end (health checks, retry, respawn) "
                             "instead of one in-process server; 0 (default) "
                             "keeps the single-process path")
    parser.add_argument("--shard", action="store_true",
                        help="with --fleet: partition the models across the "
                             "workers instead of replicating every model on "
                             "every worker")
    parser.add_argument("--demo", action="store_true",
                        help="train a small synthetic pipeline and serve it "
                             "(both the end model and the taglet ensemble)")
    parser.add_argument("--autotune-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="calibrate the default model, then replace the "
                             "batching knobs with the cheapest config whose "
                             "predicted p99 meets this SLO at "
                             "--autotune-rate (single-process only)")
    parser.add_argument("--autotune-rate", type=float, default=100.0,
                        metavar="REQ_PER_S",
                        help="arrival rate the autotuned SLO must hold at "
                             "(default 100 req/s)")
    parser.add_argument("--admission-max-delay-ms", type=float, default=None,
                        metavar="MS",
                        help="attach model-driven admission control: shed "
                             "requests (HTTP 429, retryable) whose predicted "
                             "queue wait exceeds this budget, or whose own "
                             "deadline cannot be met (single-process only)")
    args = parser.parse_args(argv)

    batching = BatchingConfig(max_batch_size=args.max_batch_size,
                              max_latency_ms=args.max_latency_ms,
                              cache_size=args.cache_size)

    models = _parse_models(args)
    if args.demo:
        demo_dir = tempfile.mkdtemp(prefix="repro-serve-demo-")
        end_path, ensemble_path = _train_demo_artifact(demo_dir)
        models = [("default", end_path), ("ensemble", ensemble_path)] + models
    if not models:
        parser.error("nothing to serve: pass artifact paths, --model, or --demo")

    capacity_flags = (args.autotune_p99_ms is not None
                      or args.admission_max_delay_ms is not None)
    if args.fleet > 0:
        if capacity_flags:
            print("warning: --autotune-p99-ms/--admission-max-delay-ms "
                  "calibrate against an in-process servable and are ignored "
                  "with --fleet", file=sys.stderr, flush=True)
        specs = (sharded_specs(models, args.fleet) if args.shard
                 else replicated_specs(models, args.fleet))
        fleet = ServingFleet(specs, FleetConfig(batching=batching))
        print(f"spawning {args.fleet} serving worker process(es) "
              f"({'sharded' if args.shard else 'replicated'})...", flush=True)
        fleet.start()
        for replica_id, (host, port) in sorted(fleet.addresses().items()):
            served = sorted(fleet.router.replica(replica_id).versions)
            print(f"  {replica_id} on {host}:{port} serving {served}",
                  flush=True)
        app = fleet.router
    else:
        fleet = None
        server = Server(batching=batching)
        for name, path in models:
            version = server.load(name, path)
            print(f"loaded {name}@{version} from {path}", flush=True)
        if capacity_flags:
            _attach_capacity(server, models[0][0], args)
        app = server

    httpd = make_http_server(app, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    count = len(models)
    print(f"serving {count} model(s) on http://{host}:{port} "
          f"(POST /predict, GET /models, /stats, /healthz, /capacity)",
          flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        httpd.stop()
        if fleet is not None:
            fleet.close()
        else:
            server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
