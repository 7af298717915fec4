"""The TAGLETS controller: modules → ensemble → distilled end model.

The :class:`Controller` runs the full pipeline of Figure 2:

1. query SCADS (optionally pruned) for task-related auxiliary data,
2. train each configured module to obtain a taglet,
3. ensemble the taglets' predictions on the unlabeled data into soft pseudo
   labels,
4. distill pseudo-labeled + labeled data into the servable end model.

The intermediate artifacts (auxiliary selection, taglets, ensemble) remain
accessible on the returned :class:`TagletsResult`, which is what the
module-level and ensembling analyses of the paper (Figures 5–7) consume.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..nn.replay import ReplayStats, collect_replay_stats
from ..nn.tensor import default_dtype, use_graph_replay

from ..distill.end_model import EndModel, EndModelConfig, train_end_model
from ..ensemble.voting import TagletEnsemble
from ..modules import (DEFAULT_MODULES, FixMatchModule, MultiTaskModule,
                       TransferModule, ZslKgModule)
from ..modules.base import ModuleInput, Taglet, TrainingModule
from ..scads.query import AuxiliarySelection
from .task import Task

__all__ = ["ControllerConfig", "TagletsResult", "Controller"]

_MODULE_FACTORIES = {
    "transfer": TransferModule,
    "multitask": MultiTaskModule,
    "fixmatch": FixMatchModule,
    "zsl_kg": ZslKgModule,
}


@dataclass
class ControllerConfig:
    """System-level configuration of a TAGLETS run."""

    #: module names (or leave None and pass instances to the Controller)
    modules: Sequence[str] = DEFAULT_MODULES
    #: SCADS pruning level: None (no pruning), 0 or 1 (paper Section 4.3)
    prune_level: Optional[int] = None
    end_model: EndModelConfig = field(default_factory=EndModelConfig)
    #: engine dtype for the whole run: None keeps the caller's default,
    #: "float32" selects the halved-bandwidth fast mode (see docs/performance.md).
    #: The dtype scope is context-local, so Controllers with different dtypes
    #: may run concurrently on different threads.
    dtype: Optional[str] = None
    #: whole-graph capture/replay executor for every static training loop in
    #: the run (module fine-tuning, the ZSL-KG pretrain, FixMatch's two-view
    #: step, the multi-task joint step, end-model distillation):
    #: ``None`` inherits the engine-wide flag (on by default), ``True``/
    #: ``False`` open a ``use_graph_replay`` scope for this run, the one
    #: replay switch every loop reads.
    #: Replayed steps are bit-identical to eager; unsupported models fall
    #: back automatically (see docs/performance.md).  Context-local, like
    #: ``dtype``.
    replay: Optional[bool] = None
    #: optional shared :class:`~repro.nn.replay.ReplayStats` counter: when
    #: set, every training loop in the run (module fine-tuning, the ZSL-KG
    #: pretrain, FixMatch's two-view step, the multi-task joint step,
    #: end-model distillation) reports
    #: its captures / replays / eager fallbacks (with reasons) into it.
    #: Turns the executor's silent eager fallback into an observable signal:
    #: on static loops ``replay_stats.fallback_count`` must stay zero
    #: (asserted by ``tests/nn/test_replay_pipeline.py``).
    replay_stats: Optional[ReplayStats] = None
    #: if set, ``run()`` exports the distilled end model as a versioned
    #: servable artifact at this directory (see :mod:`repro.serve.artifact`)
    #: — the train-to-deploy hook.  Test accuracy is recorded in the
    #: manifest's metrics when the task carries a test set.
    export_path: Optional[str] = None
    #: if set, ``run()`` also exports the full taglet *ensemble* as a
    #: servable artifact at this directory (schema-v2 multi-member format;
    #: see :func:`repro.serve.export_ensemble`) — the quality-over-latency
    #: deployment: the served prediction is the renormalized vote average
    #: of every taglet (Eq. 6) instead of the distilled student.
    export_ensemble_path: Optional[str] = None
    seed: int = 0


@dataclass
class TagletsResult:
    """Everything produced by one TAGLETS run."""

    taglets: List[Taglet]
    ensemble: TagletEnsemble
    end_model: EndModel
    auxiliary: AuxiliarySelection
    pseudo_labels: np.ndarray
    #: the target label space, recorded so the result is exportable as a
    #: self-describing servable artifact (``repro.serve.export_end_model``)
    class_names: List[str] = field(default_factory=list)
    task_name: Optional[str] = None

    def taglet(self, name: str) -> Taglet:
        for taglet in self.taglets:
            if taglet.name == name:
                return taglet
        raise KeyError(f"no taglet named {name!r}")

    def module_accuracies(self, features: np.ndarray,
                          labels: np.ndarray) -> Dict[str, float]:
        return self.ensemble.member_accuracies(features, labels)

    def ensemble_accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        return self.ensemble.accuracy(features, labels)

    def end_model_accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        return self.end_model.accuracy(features, labels)


class Controller:
    """Runs the end-to-end TAGLETS pipeline for a task."""

    def __init__(self,
                 modules: Optional[Sequence[Union[str, TrainingModule]]] = None,
                 config: Optional[ControllerConfig] = None):
        self.config = config or ControllerConfig()
        module_specs = modules if modules is not None else self.config.modules
        self.modules: List[TrainingModule] = [self._resolve_module(m)
                                              for m in module_specs]
        if not self.modules:
            raise ValueError("the controller needs at least one module")

    @staticmethod
    def _resolve_module(spec: Union[str, TrainingModule]) -> TrainingModule:
        if isinstance(spec, TrainingModule):
            return spec
        if spec not in _MODULE_FACTORIES:
            raise KeyError(f"unknown module {spec!r}; known: {sorted(_MODULE_FACTORIES)}")
        return _MODULE_FACTORIES[spec]()

    # ------------------------------------------------------------------ #
    # Pipeline
    # ------------------------------------------------------------------ #
    def select_auxiliary_data(self, task: Task) -> AuxiliarySelection:
        """Step 1: query (optionally pruned) SCADS for task-related data."""
        if task.scads is None:
            return AuxiliarySelection.empty(task.input_shape)
        bundle = task.scads
        if self.config.prune_level is not None:
            bundle = bundle.pruned(task.classes, self.config.prune_level)
        rng = np.random.default_rng(self.config.seed)
        return bundle.select(task.classes,
                             num_related_concepts=task.wanted_num_related_class,
                             images_per_concept=task.images_per_related_class,
                             rng=rng)

    def train_taglets(self, task: Task,
                      auxiliary: AuxiliarySelection) -> List[Taglet]:
        """Step 2: train every module independently.

        Each module constructs all of its RNGs locally from its
        :class:`ModuleInput` seed and trains a private copy of the backbone.
        """
        bundle = task.scads
        if bundle is not None and self.config.prune_level is not None:
            bundle = bundle.pruned(task.classes, self.config.prune_level)
        return [module.train(ModuleInput(classes=task.classes,
                                         labeled_features=task.labeled_features,
                                         labeled_labels=task.labeled_labels,
                                         unlabeled_features=task.unlabeled_features,
                                         auxiliary=auxiliary,
                                         backbone=task.backbone,
                                         scads=bundle,
                                         seed=self.config.seed))
                for module in self.modules]

    def run(self, task: Task) -> TagletsResult:
        """Run the full pipeline and return all artifacts."""
        if not task.has_backbone:
            raise RuntimeError("the task has no backbone; call set_initial_model()")
        dtype_scope = (default_dtype(self.config.dtype)
                       if self.config.dtype is not None else nullcontext())
        replay_scope = (use_graph_replay(self.config.replay)
                        if self.config.replay is not None else nullcontext())
        stats_scope = (collect_replay_stats(self.config.replay_stats)
                       if self.config.replay_stats is not None
                       else nullcontext())
        with dtype_scope, replay_scope, stats_scope:
            auxiliary = self.select_auxiliary_data(task)
            taglets = self.train_taglets(task, auxiliary)
            ensemble = TagletEnsemble(taglets)

            if len(task.unlabeled_features):
                pseudo_labels = ensemble.predict_proba(task.unlabeled_features,
                                                       batch_size=None)
            else:
                pseudo_labels = np.zeros((0, task.num_classes))

            end_model = train_end_model(
                backbone=task.backbone,
                labeled_features=task.labeled_features,
                labeled_labels=task.labeled_labels,
                pseudo_features=task.unlabeled_features,
                pseudo_probabilities=pseudo_labels,
                num_classes=task.num_classes,
                config=self.config.end_model,
                seed=self.config.seed)

        result = TagletsResult(taglets=taglets, ensemble=ensemble,
                               end_model=end_model, auxiliary=auxiliary,
                               pseudo_labels=pseudo_labels,
                               class_names=task.class_names,
                               task_name=task.name)
        if self.config.export_path is not None:
            self.export(result, self.config.export_path, task=task)
        if self.config.export_ensemble_path is not None:
            self.export_ensemble(result, self.config.export_ensemble_path,
                                 task=task)
        return result

    def export(self, result: TagletsResult, path: str,
               task: Optional[Task] = None) -> str:
        """Export the result's end model as a versioned servable artifact."""
        from ..serve.artifact import export_end_model

        metrics: Dict[str, float] = {}
        if task is not None and task.has_test_set:
            metrics["test_accuracy"] = result.end_model_accuracy(
                task.test_features, task.test_labels)
        return export_end_model(result, path, metrics=metrics)

    def export_ensemble(self, result: TagletsResult, path: str,
                        task: Optional[Task] = None) -> str:
        """Export the result's taglet ensemble as a servable artifact."""
        from ..serve.artifact import export_ensemble

        metrics: Dict[str, float] = {}
        if task is not None and task.has_test_set:
            metrics["test_accuracy"] = result.ensemble_accuracy(
                task.test_features, task.test_labels)
        return export_ensemble(result, path, metrics=metrics)
