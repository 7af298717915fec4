"""Builders for the synthetic counterparts of the paper's evaluation tasks.

Each builder samples a :class:`~repro.datasets.base.TargetDataset` from a
:class:`~repro.synth.world.VisualWorld`:

* **FMD** — 10 material classes, 100 natural-domain photos per class, 5 test
  images per class held out at split time.
* **OfficeHome-Product / OfficeHome-Clipart** — the same 65 object classes in
  the product and clipart domains, ~40 images per class, 10 test per class.
* **Grocery Store** — 42 grocery classes photographed with a smartphone, with
  a *predetermined* test set (as in the real dataset) and two classes
  (``oatghurt``, ``soygurt``) that are missing from the knowledge graph.
* **CIFAR-demo** — a small 10-class task with a 100-class auxiliary pool,
  mirroring the artifact-appendix demo (CIFAR-10 target, CIFAR-100 auxiliary).

The image counts are scaled-down versions of the real datasets so the full
benchmark grid runs on a laptop, but the relative sizes (Product/Clipart
larger than FMD; Grocery smallest per class) are preserved.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..kg import vocabulary as vocab
from ..synth.world import VisualWorld
from .base import ClassSpec, TargetDataset

__all__ = [
    "build_fmd",
    "build_officehome_product",
    "build_officehome_clipart",
    "build_grocery_store",
    "build_cifar_demo",
    "DATASET_BUILDERS",
    "build_dataset",
]


def _sample_classes(world: VisualWorld, classes: Sequence[ClassSpec],
                    per_class: int, domain: str,
                    rng: np.random.Generator,
                    noise: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    features: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    for label, spec in enumerate(classes):
        concept = spec.concept
        if concept is None:
            # Out-of-vocabulary class: its appearance is a blend of anchors.
            if spec.name not in world:
                # crc32, not hash(): str hashes are salted per process.
                world.add_concept_prototype(
                    spec.name, spec.anchors,
                    seed=zlib.crc32(spec.name.encode()) % (2 ** 31))
            concept = spec.name
        images = world.sample_images(concept, per_class, domain=domain, rng=rng,
                                     noise=noise)
        features.append(images)
        labels.append(np.full(per_class, label, dtype=np.int64))
    return np.concatenate(features, axis=0), np.concatenate(labels, axis=0)


def build_fmd(world: VisualWorld, per_class: int = 100,
              seed: int = 0, appearance_noise: float = 0.5) -> TargetDataset:
    """Flickr Material Database analog: 10 material classes, natural photos.

    The real FMD intentionally includes large intra-class appearance diversity
    so that low-level cues cannot separate the materials; ``appearance_noise``
    (higher than the world's default) models that diversity.
    """
    rng = np.random.default_rng(seed)
    classes = [ClassSpec(name=c, concept=c) for c in vocab.FMD_CLASSES]
    features, labels = _sample_classes(world, classes, per_class, "natural", rng,
                                       noise=appearance_noise)
    return TargetDataset(name="fmd", classes=classes, domain="natural",
                         features=features, labels=labels)


def _officehome_classes() -> List[ClassSpec]:
    return [ClassSpec(name=c, concept=c) for c in vocab.OFFICE_HOME_CLASSES]


def build_officehome_product(world: VisualWorld, per_class: int = 40,
                             seed: int = 0) -> TargetDataset:
    """OfficeHome-Product analog: 65 object classes, catalogue-style images."""
    rng = np.random.default_rng(seed)
    classes = _officehome_classes()
    features, labels = _sample_classes(world, classes, per_class, "product", rng)
    return TargetDataset(name="officehome_product", classes=classes,
                         domain="product", features=features, labels=labels)


def build_officehome_clipart(world: VisualWorld, per_class: int = 40,
                             seed: int = 0) -> TargetDataset:
    """OfficeHome-Clipart analog: the same 65 classes as clipart illustrations."""
    rng = np.random.default_rng(seed)
    classes = _officehome_classes()
    features, labels = _sample_classes(world, classes, per_class, "clipart", rng)
    return TargetDataset(name="officehome_clipart", classes=classes,
                         domain="clipart", features=features, labels=labels)


def _grocery_classes() -> List[ClassSpec]:
    classes = [ClassSpec(name=c, concept=c) for c in vocab.GROCERY_CLASSES]
    for oov in vocab.GROCERY_OOV_CLASSES:
        classes.append(ClassSpec(name=oov, concept=None,
                                 anchors=tuple(vocab.GROCERY_OOV_ANCHORS[oov])))
    return classes


def build_grocery_store(world: VisualWorld, per_class: int = 25,
                        test_per_class: int = 8, seed: int = 0) -> TargetDataset:
    """Grocery Store analog: 42 classes, smartphone photos, fixed test set.

    The real dataset ships a predetermined test split, so the test images are
    generated once (from the builder seed) and reused by every experiment
    split, exactly as the paper's protocol requires.
    """
    rng = np.random.default_rng(seed)
    classes = _grocery_classes()
    features, labels = _sample_classes(world, classes, per_class, "smartphone", rng)
    test_rng = np.random.default_rng(seed + 10_000)
    test_features, test_labels = _sample_classes(world, classes, test_per_class,
                                                 "smartphone", test_rng)
    return TargetDataset(name="grocery_store", classes=classes, domain="smartphone",
                         features=features, labels=labels,
                         test_features=test_features, test_labels=test_labels)


def build_cifar_demo(world: VisualWorld, per_class: int = 60,
                     num_classes: int = 10, seed: int = 0) -> TargetDataset:
    """The artifact-appendix demo task: a generic 10-class natural-image task.

    Classes are drawn from curated object concepts outside the four main
    evaluation tasks' focus, standing in for CIFAR-10; the auxiliary pool in
    SCADS plays the role of CIFAR-100.
    """
    rng = np.random.default_rng(seed)
    pool = [c for c in vocab.OFFICE_HOME_CLASSES][:num_classes]
    classes = [ClassSpec(name=f"demo_{c}", concept=c) for c in pool]
    features, labels = _sample_classes(world, classes, per_class, "natural", rng)
    return TargetDataset(name="cifar_demo", classes=classes, domain="natural",
                         features=features, labels=labels)


#: Registry used by the experiment runner and the benchmarks.
DATASET_BUILDERS = {
    "fmd": build_fmd,
    "officehome_product": build_officehome_product,
    "officehome_clipart": build_officehome_clipart,
    "grocery_store": build_grocery_store,
    "cifar_demo": build_cifar_demo,
}

#: Test images held out per class, following Appendix A.2 (FMD: 5,
#: OfficeHome: 10; Grocery Store uses its predetermined test set).
TEST_PER_CLASS = {
    "fmd": 5,
    "officehome_product": 10,
    "officehome_clipart": 10,
    "grocery_store": 0,
    "cifar_demo": 10,
}


def build_dataset(name: str, world: VisualWorld, seed: int = 0,
                  **overrides) -> TargetDataset:
    """Build a dataset by registry name."""
    if name not in DATASET_BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASET_BUILDERS)}")
    return DATASET_BUILDERS[name](world, seed=seed, **overrides)
