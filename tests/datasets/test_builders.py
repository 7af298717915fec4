"""Tests for the synthetic evaluation-dataset builders."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.datasets import (DATASET_BUILDERS, TEST_PER_CLASS, build_dataset,
                            build_fmd, build_grocery_store,
                            build_officehome_clipart, build_officehome_product)
from repro.kg import vocabulary as vocab


class TestBuilders:
    def test_fmd_structure(self, tiny_workspace):
        dataset = build_fmd(tiny_workspace.world, per_class=20, seed=0)
        assert dataset.num_classes == 10
        assert len(dataset.features) == 200
        assert dataset.domain == "natural"
        assert not dataset.has_predetermined_test

    def test_officehome_variants_share_classes_but_not_pixels(self, tiny_workspace):
        product = build_officehome_product(tiny_workspace.world, per_class=5, seed=0)
        clipart = build_officehome_clipart(tiny_workspace.world, per_class=5, seed=0)
        assert product.class_names == clipart.class_names
        assert product.num_classes == 65
        assert not np.allclose(product.features, clipart.features)

    def test_grocery_store_has_oov_classes_and_fixed_test(self, tiny_workspace):
        dataset = build_grocery_store(tiny_workspace.world, per_class=10,
                                      test_per_class=3, seed=0)
        assert dataset.num_classes == 42
        assert dataset.has_predetermined_test
        oov = [c for c in dataset.classes if c.concept is None]
        assert sorted(c.name for c in oov) == sorted(vocab.GROCERY_OOV_CLASSES)
        for spec in oov:
            assert spec.anchors, "OOV classes must declare anchor concepts"

    def test_registry_and_dispatch(self, tiny_workspace):
        assert set(TEST_PER_CLASS) == set(DATASET_BUILDERS)
        dataset = build_dataset("cifar_demo", tiny_workspace.world, seed=0,
                                per_class=8)
        assert dataset.num_classes == 10
        with pytest.raises(KeyError):
            build_dataset("imagenet", tiny_workspace.world)

    def test_datasets_are_deterministic_per_seed(self, tiny_workspace):
        a = build_fmd(tiny_workspace.world, per_class=5, seed=2)
        b = build_fmd(tiny_workspace.world, per_class=5, seed=2)
        np.testing.assert_allclose(a.features, b.features)

    def test_workspace_dataset_caching(self, tiny_workspace):
        first = tiny_workspace.dataset("fmd")
        second = tiny_workspace.dataset("fmd")
        assert first is second

    def test_workspace_split_counts(self, tiny_workspace):
        split = tiny_workspace.make_task_split("fmd", shots=1, split_seed=0)
        assert len(split.labeled_features) == 10
        assert len(split.test_features) == 10 * TEST_PER_CLASS["fmd"]


_GROCERY_SCRIPT = """
import sys
import numpy as np
from repro.datasets import build_grocery_store
from repro.kg import GraphSpec, build_concept_graph
from repro.synth import VisualWorld, WorldSpec
world = VisualWorld(build_concept_graph(GraphSpec(num_filler_concepts=10,
                                                  seed=0)), WorldSpec(seed=0))
dataset = build_grocery_store(world, per_class=2, test_per_class=1, seed=0)
np.savez(sys.argv[1], features=dataset.features,
         test_features=dataset.test_features)
"""


def test_grocery_store_is_identical_across_processes(tmp_path):
    # Out-of-vocabulary class prototypes are seeded from the class name;
    # str hashes are salted per process, so the seed must not use hash().
    src = str(Path(repro.__file__).resolve().parents[1])
    arrays = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"grocery_{hash_seed}.npz"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", _GROCERY_SCRIPT, str(out)],
                       env=env, check=True)
        with np.load(out) as data:
            arrays.append({name: data[name] for name in data.files})
    first, second = arrays
    for name in ("features", "test_features"):
        assert first[name].tobytes() == second[name].tobytes(), name
