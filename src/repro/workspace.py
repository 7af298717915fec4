"""A one-call assembly of every substrate the experiments need.

The evaluation touches a lot of machinery: the knowledge graph, the synthetic
visual world, SCADS with the ImageNet-21k analog installed, SCADS embeddings,
two pretrained backbones, and four target datasets.  :func:`build_workspace`
builds all of it once (sized by a :class:`WorkspaceSpec`) and the resulting
:class:`Workspace` hands out task splits and backbones to the experiment
runner, the examples, and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .backbones import BackboneRegistry, PretrainedBackbone, default_registry
from .datasets import (TEST_PER_CLASS, TargetDataset, TaskSplit, build_dataset,
                       make_split)
from .kg import (GraphSpec, KnowledgeGraph, build_concept_graph,
                 generate_text_embeddings)
from .scads import ScadsBundle, align_target_classes, build_scads
from .synth import VisualWorld, WorldSpec

__all__ = ["WorkspaceSpec", "Workspace", "build_workspace"]


@dataclass
class WorkspaceSpec:
    """Size knobs for the whole experimental workspace.

    The defaults ("small") keep the full benchmark grid laptop-friendly;
    ``WorkspaceSpec.full()`` enlarges the haystack and image pools for a run
    closer to the paper's scale.
    """

    graph: GraphSpec = field(default_factory=lambda: GraphSpec(num_filler_concepts=800))
    world: WorldSpec = field(default_factory=WorldSpec)
    scads_images_per_concept: int = 35
    seed: int = 0

    @classmethod
    def small(cls, seed: int = 0) -> "WorkspaceSpec":
        return cls(graph=GraphSpec(num_filler_concepts=800, seed=seed),
                   world=WorldSpec(seed=seed),
                   scads_images_per_concept=35, seed=seed)

    @classmethod
    def full(cls, seed: int = 0) -> "WorkspaceSpec":
        return cls(graph=GraphSpec(num_filler_concepts=4000, seed=seed),
                   world=WorldSpec(seed=seed),
                   scads_images_per_concept=50, seed=seed)


class Workspace:
    """Everything a TAGLETS experiment needs, built once and shared."""

    def __init__(self, spec: WorkspaceSpec):
        self.spec = spec
        self.graph: KnowledgeGraph = build_concept_graph(spec.graph)
        # One set of concept embeddings shared between the visual world and
        # SCADS, so semantic similarity genuinely predicts visual similarity.
        self.text_embeddings = generate_text_embeddings(
            self.graph, dim=spec.world.semantic_dim, seed=spec.seed)
        self.world: VisualWorld = VisualWorld(self.graph, spec.world,
                                              semantic_embeddings=self.text_embeddings)
        self.scads: ScadsBundle = build_scads(
            self.graph, self.world,
            images_per_concept=spec.scads_images_per_concept, seed=spec.seed,
            text_embeddings=self.text_embeddings)
        # Align known out-of-vocabulary target classes (oatghurt, soygurt) with
        # SCADS *now*, so the graph — and therefore backbone pretraining, which
        # samples concepts from it — does not depend on the order in which
        # datasets are later built.
        self._align_known_oov_classes()
        self.backbones: BackboneRegistry = default_registry(self.world, self.graph)
        self._datasets: Dict[str, TargetDataset] = {}

    def _align_known_oov_classes(self) -> None:
        from .datasets.base import ClassSpec
        from .kg import vocabulary as vocab

        specs = [ClassSpec(name=name, concept=None,
                           anchors=tuple(vocab.GROCERY_OOV_ANCHORS[name]))
                 for name in vocab.GROCERY_OOV_CLASSES]
        align_target_classes(self.scads, self.world, specs, seed=self.spec.seed)

    # ------------------------------------------------------------------ #
    # Datasets and splits
    # ------------------------------------------------------------------ #
    def dataset(self, name: str) -> TargetDataset:
        """Build (and cache) one of the evaluation datasets."""
        if name not in self._datasets:
            dataset = build_dataset(name, self.world, seed=self.spec.seed)
            # Align out-of-vocabulary target classes (e.g. oatghurt) with SCADS.
            align_target_classes(self.scads, self.world, dataset.classes,
                                 seed=self.spec.seed)
            self._datasets[name] = dataset
        return self._datasets[name]

    def make_task_split(self, dataset_name: str, shots: int,
                        split_seed: int = 0) -> TaskSplit:
        """Create a labeled/unlabeled/test split following Appendix A.2."""
        dataset = self.dataset(dataset_name)
        test_per_class = TEST_PER_CLASS.get(dataset_name, 10)
        return make_split(dataset, shots=shots, split_seed=split_seed,
                          test_per_class=test_per_class)

    # ------------------------------------------------------------------ #
    # Backbones
    # ------------------------------------------------------------------ #
    def backbone(self, name: str) -> PretrainedBackbone:
        """Get a pretrained backbone by name (``resnet50`` or ``bit``)."""
        return self.backbones.get(name)


def build_workspace(scale: str = "small", seed: int = 0,
                    spec: Optional[WorkspaceSpec] = None) -> Workspace:
    """Build a workspace at the requested scale (``small`` or ``full``)."""
    if spec is None:
        if scale == "small":
            spec = WorkspaceSpec.small(seed=seed)
        elif scale == "full":
            spec = WorkspaceSpec.full(seed=seed)
        else:
            raise ValueError(f"unknown scale {scale!r}; expected 'small' or 'full'")
    return Workspace(spec)
