"""``repro`` — a from-scratch reproduction of TAGLETS (MLSys 2022).

TAGLETS is an automatic semi-supervised learning system that exploits three
kinds of data at once: limited labeled target data, unlabeled target data,
and auxiliary data organized in a knowledge-graph-backed repository (SCADS).
This package rebuilds the entire system — and every substrate it depends on —
on NumPy and the Python standard library alone:

* :mod:`repro.nn` — autograd, layers, optimizers, data pipeline,
* :mod:`repro.kg` — the ConceptNet-analog knowledge graph and embeddings,
* :mod:`repro.synth` — the synthetic visual world replacing real image data,
* :mod:`repro.datasets` — the paper's four evaluation tasks,
* :mod:`repro.scads` — the Structured Collection of Annotated Datasets,
* :mod:`repro.backbones` — the ResNet-50 / BiT pretrained-encoder analogs,
* :mod:`repro.modules` — the Transfer, Multi-task, FixMatch and ZSL-KG taglets,
* :mod:`repro.ensemble` / :mod:`repro.distill` — pseudo labeling and the end model,
* :mod:`repro.core` — the public ``Task`` / ``Controller`` API,
* :mod:`repro.baselines` — the comparison methods of the evaluation,
* :mod:`repro.evaluation` — metrics, confidence intervals and the experiment runner,
* :mod:`repro.serve` — versioned end-model artifacts and the micro-batched
  serving layer (registry, HTTP endpoint, ``python -m repro.serve``).

Quickstart::

    from repro.workspace import build_workspace
    from repro.core import Task, Controller

    ws = build_workspace(seed=0)                      # graph + world + SCADS + backbones
    split = ws.make_task_split("fmd", shots=5, split_seed=0)
    task = Task.from_split(split, scads=ws.scads, backbone=ws.backbone("resnet50"))
    result = Controller().run(task)
    print(result.end_model_accuracy(split.test_features, split.test_labels))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
