"""Declarative scenario specifications: regime axes composed into task splits.

A :class:`ScenarioSpec` names one cell family of the robustness grid: a base
dataset and shot count plus any combination of regime axes —

* **scarcity** — the shot count itself (1/5/20-shot);
* **imbalance** — a geometric head→tail labeled (and unlabeled) profile;
* **corruption** — a severity-graded input corruption
  (:mod:`repro.synth.domains`) applied to chosen split parts;
* **shift** — a test-time domain shift: test images are re-rendered through
  an extra :class:`~repro.synth.domains.DomainShift` the training data never
  saw;
* **incremental** — classes arrive in phases
  (:class:`~repro.synth.streams.ArrivalSchedule`); the unlabeled pool keeps
  *all* classes (future classes pollute pseudo-labeling, deliberately);
* **streaming** — the unlabeled pool arrives in cumulative chunks, or is cut
  to a fraction of its full size.

``build(workspace)`` turns the spec into a list of training-stage
:class:`~repro.datasets.base.TaskSplit` objects (one for plain scenarios, one
per arrival for incremental/streaming ones) whose last stage is the gated
evaluation split.  Everything derives deterministically from the
spec's seeds, so two processes building the same scenario train on
bit-identical arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace as dataclass_replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..datasets.base import TaskSplit
from ..synth.domains import CORRUPTION_NAMES, MAX_SEVERITY, build_corruption
from ..synth.streams import ArrivalSchedule, chunk_indices, subsample_indices
from ..workspace import Workspace

__all__ = ["FAMILIES", "CorruptionAxis", "ScenarioSpec",
           "apply_imbalance", "apply_corruption", "apply_shift",
           "class_incremental_splits", "streaming_splits"]

#: The regime families the grid must cover (asserted by tests).
FAMILIES = ("clean", "scarcity", "imbalance", "corruption", "shift",
            "incremental", "streaming")

#: Split parts a corruption may target.
_CORRUPTION_TARGETS = ("labeled", "unlabeled", "test")


@dataclass(frozen=True)
class CorruptionAxis:
    """Which corruption hits which split parts, and how hard."""

    kind: str
    severity: int
    targets: Tuple[str, ...] = ("test",)

    def __post_init__(self):
        if self.kind not in CORRUPTION_NAMES:
            raise ValueError(
                f"unknown corruption {self.kind!r}; expected one of "
                f"{CORRUPTION_NAMES}")
        if not 0 <= self.severity <= MAX_SEVERITY:
            raise ValueError(f"severity must be in 0..{MAX_SEVERITY}")
        unknown = set(self.targets) - set(_CORRUPTION_TARGETS)
        if not self.targets or unknown:
            raise ValueError(
                f"targets must be a non-empty subset of {_CORRUPTION_TARGETS}")


def _scenario_seed(name: str, split_seed: int) -> int:
    """A stable per-scenario seed (crc32, not ``hash`` — survives processes)."""
    return (zlib.crc32(name.encode()) + 7919 * split_seed) % (2 ** 31)


# --------------------------------------------------------------------------- #
# Axis transforms over TaskSplit
# --------------------------------------------------------------------------- #
def apply_imbalance(split: TaskSplit, ratio: float, seed: int = 0) -> TaskSplit:
    """Thin the labeled set into a geometric head→tail class profile.

    Class ranks are a seeded permutation of the label space; class at rank
    fraction ``q`` keeps ``max(1, round(shots * ratio**q))`` labels, so the
    head class keeps all its shots and the tail class keeps
    ``max(1, round(shots * ratio))``.  Dropped labeled examples are *moved to
    the unlabeled pool* (in the real protocol the images exist — they just
    lost their labels), and the test set stays balanced.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("imbalance ratio must be in (0, 1]")
    rng = np.random.default_rng(seed)
    num_classes = split.num_classes
    ranks = np.empty(num_classes, dtype=np.int64)
    ranks[rng.permutation(num_classes)] = np.arange(num_classes)
    denominator = max(1, num_classes - 1)

    keep_idx: List[int] = []
    drop_idx: List[int] = []
    for cls in range(num_classes):
        cls_indices = np.flatnonzero(split.labeled_labels == cls)
        quantile = ranks[cls] / denominator
        keep = max(1, int(round(len(cls_indices) * ratio ** quantile)))
        permuted = rng.permutation(cls_indices)
        keep_idx.extend(permuted[:keep].tolist())
        drop_idx.extend(permuted[keep:].tolist())

    keep_arr = np.sort(np.asarray(keep_idx, dtype=np.int64))
    drop_arr = np.sort(np.asarray(drop_idx, dtype=np.int64))
    unlabeled = np.concatenate([split.unlabeled_features,
                                split.labeled_features[drop_arr]], axis=0)
    return dataclass_replace(
        split,
        labeled_features=split.labeled_features[keep_arr],
        labeled_labels=split.labeled_labels[keep_arr],
        unlabeled_features=unlabeled)


def apply_corruption(split: TaskSplit, axis: CorruptionAxis,
                     seed: int = 0) -> TaskSplit:
    """Corrupt the chosen split parts with one severity-graded corruption."""
    dim = split.test_features.shape[1]
    corruption = build_corruption(axis.kind, dim, axis.severity, seed=seed)
    updates: Dict[str, np.ndarray] = {}
    if "labeled" in axis.targets:
        updates["labeled_features"] = corruption(split.labeled_features)
    if "unlabeled" in axis.targets and len(split.unlabeled_features):
        updates["unlabeled_features"] = corruption(split.unlabeled_features)
    if "test" in axis.targets:
        updates["test_features"] = corruption(split.test_features)
    return dataclass_replace(split, **updates)


def apply_shift(split: TaskSplit, domain: str, workspace: Workspace) -> TaskSplit:
    """Render the *test* images through an extra, never-trained-on domain.

    Uses the workspace world's cached domain instance so the same scenario
    sees the same shift parameters in every process.
    """
    shifted = workspace.world.domain(domain)(split.test_features)
    return dataclass_replace(split, test_features=shifted)


# --------------------------------------------------------------------------- #
# Multi-stage arrivals
# --------------------------------------------------------------------------- #
def _restrict_to_classes(split: TaskSplit, class_indices: np.ndarray) -> TaskSplit:
    """A split over a subset of classes, labels remapped to ``0..k-1``.

    The unlabeled pool is intentionally NOT restricted: images of classes
    that have not arrived yet still flow through it, which is exactly the
    pseudo-label pollution a class-incremental deployment faces.
    """
    class_indices = np.asarray(class_indices, dtype=np.int64)
    remap = np.full(split.num_classes, -1, dtype=np.int64)
    remap[class_indices] = np.arange(len(class_indices))

    labeled_mask = np.isin(split.labeled_labels, class_indices)
    test_mask = np.isin(split.test_labels, class_indices)
    return dataclass_replace(
        split,
        classes=[split.classes[i] for i in class_indices],
        labeled_features=split.labeled_features[labeled_mask],
        labeled_labels=remap[split.labeled_labels[labeled_mask]],
        test_features=split.test_features[test_mask],
        test_labels=remap[split.test_labels[test_mask]])


def class_incremental_splits(split: TaskSplit, num_phases: int,
                             seed: int = 0) -> List[TaskSplit]:
    """Cumulative class-incremental stages; the last stage is the full task."""
    schedule = ArrivalSchedule(num_phases=num_phases, seed=seed)
    return [_restrict_to_classes(split, seen)
            for seen in schedule.cumulative(split.num_classes)]


def streaming_splits(split: TaskSplit, num_chunks: int,
                     seed: int = 0) -> List[TaskSplit]:
    """Cumulative streaming stages: the unlabeled pool grows chunk by chunk."""
    chunks = chunk_indices(len(split.unlabeled_features), num_chunks, seed=seed)
    stages: List[TaskSplit] = []
    seen = np.zeros(0, dtype=np.int64)
    for chunk in chunks:
        seen = np.sort(np.concatenate([seen, chunk]))
        stages.append(dataclass_replace(
            split, unlabeled_features=split.unlabeled_features[seen]))
    return stages


# --------------------------------------------------------------------------- #
# The spec itself
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """One named cell of the robustness grid."""

    name: str
    family: str
    dataset: str = "fmd"
    shots: int = 5
    split_seed: int = 0
    backbone: str = "resnet50"
    #: tail/head labeled ratio in (0, 1]; ``None`` keeps the split balanced
    imbalance: Optional[float] = None
    corruption: Optional[CorruptionAxis] = None
    #: test-time domain shift (a :func:`repro.synth.build_domain` name)
    shift: Optional[str] = None
    #: class-incremental arrival phases (>= 2)
    phases: Optional[int] = None
    #: streaming unlabeled-pool chunks (>= 2)
    stream_chunks: Optional[int] = None
    #: cut the unlabeled pool to this fraction before anything else
    unlabeled_fraction: Optional[float] = None
    description: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.phases is not None and self.stream_chunks is not None:
            raise ValueError(
                "a scenario is either incremental or streaming, not both")
        if self.phases is not None and self.phases < 2:
            raise ValueError("incremental scenarios need at least 2 phases")
        if self.stream_chunks is not None and self.stream_chunks < 2:
            raise ValueError("streaming scenarios need at least 2 chunks")
        if self.unlabeled_fraction is not None \
                and not 0.0 < self.unlabeled_fraction <= 1.0:
            raise ValueError("unlabeled_fraction must be in (0, 1]")

    def axes(self) -> Dict[str, object]:
        """The regime axes as flat metadata (recorded on every result row)."""
        axes: Dict[str, object] = {"shots": self.shots}
        if self.imbalance is not None:
            axes["imbalance"] = self.imbalance
        if self.corruption is not None:
            axes["corruption"] = self.corruption.kind
            axes["severity"] = self.corruption.severity
            axes["corruption_targets"] = list(self.corruption.targets)
        if self.shift is not None:
            axes["shift"] = self.shift
        if self.phases is not None:
            axes["phases"] = self.phases
        if self.stream_chunks is not None:
            axes["stream_chunks"] = self.stream_chunks
        if self.unlabeled_fraction is not None:
            axes["unlabeled_fraction"] = self.unlabeled_fraction
        return axes

    def build(self, workspace: Workspace) -> List[TaskSplit]:
        """Compose the axes into training stages (deterministic); the last
        stage is the one evaluated and gated."""
        seed = _scenario_seed(self.name, self.split_seed)
        split = workspace.make_task_split(self.dataset, shots=self.shots,
                                          split_seed=self.split_seed)
        if self.unlabeled_fraction is not None:
            keep = subsample_indices(len(split.unlabeled_features),
                                     self.unlabeled_fraction, seed=seed)
            split = dataclass_replace(
                split, unlabeled_features=split.unlabeled_features[keep])
        if self.imbalance is not None:
            split = apply_imbalance(split, self.imbalance, seed=seed)
        if self.corruption is not None:
            split = apply_corruption(split, self.corruption, seed=seed)
        if self.shift is not None:
            split = apply_shift(split, self.shift, workspace)

        if self.phases is not None:
            return class_incremental_splits(split, self.phases, seed=seed)
        if self.stream_chunks is not None:
            return streaming_splits(split, self.stream_chunks, seed=seed)
        return [split]
