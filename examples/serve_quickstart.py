"""From training to an answered HTTP request in one script.

The full deployment lifecycle of the reproduction:

1. build a (reduced) workspace and train the TAGLETS pipeline,
2. export the distilled end model *and* the taglet ensemble as versioned
   servable artifacts (via the ``Controller`` export hooks),
3. register both in a :class:`~repro.serve.Server` behind the dynamic
   micro-batching engine and start the JSON/HTTP endpoint,
4. fire concurrent requests at both models — the ensemble ones carrying a
   priority and a deadline — and verify the served predictions agree with
   offline inference (end model) and offline taglet voting (ensemble),
5. stand the same artifact up again as a 2-process **fleet**
   (:class:`~repro.serve.ServingFleet`: worker processes behind the
   routing front end), kill one worker mid-traffic, and verify that no
   request fails, predictions stay bit-identical, and the replica
   respawns — the scale-out path on the unchanged client API.

Run with::

    python examples/serve_quickstart.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
import urllib.request

import numpy as np

from repro.core import Controller, ControllerConfig, Task
from repro.distill import EndModelConfig
from repro.kg import GraphSpec
from repro.modules import MultiTaskConfig, MultiTaskModule, TransferConfig, TransferModule
from repro.serve import BatchingConfig, Server, load_servable, make_http_server
from repro.serve.batching import run_at_quantum
from repro.synth import WorldSpec
from repro.workspace import Workspace, WorkspaceSpec


def main() -> None:
    start = time.time()

    # ---- 1. train --------------------------------------------------------
    print("Building a reduced workspace and training TAGLETS...")
    spec = WorkspaceSpec(graph=GraphSpec(num_filler_concepts=300, seed=0),
                         world=WorldSpec(seed=0), scads_images_per_concept=30,
                         seed=0)
    workspace = Workspace(spec)
    split = workspace.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=workspace.scads,
                           backbone=workspace.backbone("resnet50"),
                           wanted_num_related_class=3,
                           images_per_related_class=8)

    # ---- 2. export (the Controller hooks write both artifacts) -----------
    artifact_dir = tempfile.mkdtemp(prefix="taglets-artifact-")
    ensemble_dir = artifact_dir + "-ensemble"
    config = ControllerConfig(end_model=EndModelConfig(epochs=20),
                              dtype="float32", export_path=artifact_dir,
                              export_ensemble_path=ensemble_dir,
                              seed=0)
    modules = [MultiTaskModule(MultiTaskConfig(epochs=10)),
               TransferModule(TransferConfig(aux_epochs=10, target_epochs=25))]
    result = Controller(modules=modules, config=config).run(task)
    accuracy = result.end_model_accuracy(split.test_features, split.test_labels)
    print(f"Trained and exported the end model "
          f"(test accuracy {accuracy * 100:.1f}%) to {artifact_dir}")
    print(f"Exported the {len(result.taglets)}-member taglet ensemble "
          f"to {ensemble_dir}")

    # ---- 3. serve --------------------------------------------------------
    server = Server(batching=BatchingConfig(max_batch_size=32,
                                            max_latency_ms=5))
    version = server.load("fmd", artifact_dir)
    ens_version = server.load("fmd-ensemble", ensemble_dir)
    httpd = make_http_server(server, port=0).start()
    port = httpd.server_address[1]
    print(f"Serving fmd@{version} and fmd-ensemble@{ens_version} "
          f"on http://127.0.0.1:{port}")

    # ---- 4. query (concurrent clients over HTTP) -------------------------
    test_x = split.test_features
    responses: list = [None] * len(test_x)
    ens_responses: list = [None] * len(test_x)
    errors: list = []

    def client(i: int) -> None:
        try:
            for slot, payload in (
                    (responses, {"model": "fmd",
                                 "inputs": [test_x[i].tolist()]}),
                    # Ensemble requests ride the priority lane with a
                    # generous deadline (expired requests would get 504).
                    (ens_responses, {"model": "fmd-ensemble",
                                     "inputs": [test_x[i].tolist()],
                                     "priority": 5, "deadline_ms": 30_000})):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/predict",
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as response:
                    slot[i] = json.loads(response.read())
        except Exception as error:  # pragma: no cover - smoke failure path
            errors.append((i, error))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(test_x))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"requests failed: {errors[:3]}"

    # Served answers must agree with offline inference on the same inputs.
    servable = load_servable(artifact_dir)
    offline = servable.predict_proba(test_x, batch_size=32).argmax(axis=1)
    served = np.array([r["predictions"][0] for r in responses])
    assert np.array_equal(served, offline), "served != offline predictions"
    served_accuracy = float((served == split.test_labels).mean())

    # Served ensemble votes must agree with offline taglet voting at the
    # serving quantum (the ensemble's own bit-identity guarantee).  The
    # pipeline trained under float32, so offline voting runs under the same
    # engine dtype — exactly as it did during pseudo-labeling.
    from repro.nn import default_dtype
    with default_dtype("float32"):
        ens_offline = run_at_quantum(
            lambda rows: result.ensemble.predict_proba(rows, batch_size=None),
            np.asarray(test_x, dtype=np.float64), 32).argmax(axis=1)
    ens_served = np.array([r["predictions"][0] for r in ens_responses])
    assert np.array_equal(ens_served, ens_offline), \
        "served ensemble != offline voting"
    ens_accuracy = float((ens_served == split.test_labels).mean())

    stats = server.stats()[f"fmd@{version}"]
    ens_stats = server.stats()[f"fmd-ensemble@{ens_version}"]
    print(f"\n--- served {2 * len(test_x)} concurrent requests ---")
    print(f"  end model predictions identical to offline inference: True")
    print(f"  ensemble votes identical to offline taglet voting   : True")
    print(f"  end model accuracy  : {served_accuracy * 100:.1f}%")
    print(f"  ensemble accuracy   : {ens_accuracy * 100:.1f}%")
    print(f"  fused forward passes: {stats['batches']} end model "
          f"(mean batch {stats['mean_batch_size']}), "
          f"{ens_stats['batches']} ensemble "
          f"(mean batch {ens_stats['mean_batch_size']})")
    print(f"  example response    : {responses[0]}")

    httpd.stop()
    server.close()

    # ---- 5. scale out: the same artifact as a 2-process fleet ------------
    from repro.serve import FleetConfig, ServingFleet, replicated_specs

    print("\nSpawning a 2-process fleet over the same artifact...")
    specs = replicated_specs([("fmd", artifact_dir)], 2)
    fleet_config = FleetConfig(batching=BatchingConfig(max_batch_size=32,
                                                       max_latency_ms=5))
    with ServingFleet(specs, fleet_config) as fleet:
        victim = fleet.replica_ids()[0]
        fleet_errors: list = []
        fleet_served: list = [None] * len(test_x)

        def fleet_client(indices) -> None:
            for i in indices:
                try:
                    response = fleet.router.predict(test_x[i], model="fmd")
                    fleet_served[i] = response["predictions"][0]
                except Exception as error:  # pragma: no cover - smoke path
                    fleet_errors.append((i, error))
                if i == 8:      # chaos: kill a worker while traffic flows
                    fleet.kill_replica(victim)

        fleet_threads = [threading.Thread(target=fleet_client,
                                          args=(range(k, len(test_x), 4),))
                         for k in range(4)]
        for thread in fleet_threads:
            thread.start()
        for thread in fleet_threads:
            thread.join()
        assert not fleet_errors, f"fleet requests failed: {fleet_errors[:3]}"
        assert np.array_equal(np.array(fleet_served), offline), \
            "fleet served != offline predictions"
        respawned = fleet.router.wait_healthy(2, timeout=30)
        assert respawned, "killed replica did not respawn healthy"
        print(f"  served {len(test_x)} requests across 2 worker processes, "
              f"killed {victim} mid-traffic:")
        print(f"  zero failed requests, predictions identical to offline, "
              f"replica respawned on its original port")

    print(f"\nDone in {time.time() - start:.1f}s.")


if __name__ == "__main__":
    main()
