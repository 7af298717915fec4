"""Tests for the synthetic visual world."""

import numpy as np
import pytest

from repro.kg import GraphSpec, build_concept_graph
from repro.synth import VisualWorld, WorldSpec


@pytest.fixture(scope="module")
def graph():
    return build_concept_graph(GraphSpec(num_filler_concepts=100, seed=0))


@pytest.fixture(scope="module")
def world(graph):
    return VisualWorld(graph, WorldSpec(image_dim=16, seed=0))


class TestPrototypes:
    def test_every_concept_has_a_prototype(self, graph, world):
        for concept in graph.concepts[:50]:
            assert world.prototype(concept).shape == (16,)

    def test_unknown_concept_raises(self, world):
        with pytest.raises(KeyError):
            world.prototype("not_a_concept")

    def test_semantic_relatedness_implies_visual_relatedness(self, world):
        """The core SCADS assumption: graph-close concepts look alike."""
        close = world.prototype_distance("plastic", "cling_film")
        far = np.mean([world.prototype_distance("plastic", f"filler_{i:05d}")
                       for i in range(20)])
        assert close < far

    def test_siblings_closer_than_cross_domain(self, world):
        sibling = world.prototype_distance("plastic", "stone")
        cross = world.prototype_distance("plastic", "keyboard")
        assert sibling < cross * 1.5  # materials are at least comparably close

    def test_deterministic_given_seed(self, graph):
        a = VisualWorld(graph, WorldSpec(image_dim=8, seed=3))
        b = VisualWorld(graph, WorldSpec(image_dim=8, seed=3))
        np.testing.assert_allclose(a.prototype("plastic"), b.prototype("plastic"))

    def test_contains(self, world):
        assert "plastic" in world
        assert "missing_concept" not in world


class TestSampling:
    def test_sample_shapes(self, world):
        images = world.sample_images("plastic", 7, rng=np.random.default_rng(0))
        assert images.shape == (7, 16)
        assert world.sample_images("plastic", 0).shape == (0, 16)

    def test_negative_count_rejected(self, world):
        with pytest.raises(ValueError):
            world.sample_images("plastic", -1)

    def test_images_cluster_around_prototype(self, world):
        rng = np.random.default_rng(0)
        own = world.sample_images("plastic", 50, rng=rng)
        other_proto = world.prototype("keyboard")
        own_proto = world.prototype("plastic")
        dist_own = np.linalg.norm(own - own_proto, axis=1).mean()
        dist_other = np.linalg.norm(own - other_proto, axis=1).mean()
        assert dist_own < dist_other

    def test_domain_changes_appearance(self, world):
        rng_state = np.random.default_rng(0)
        natural = world.sample_images("plastic", 5, domain="natural", rng=rng_state)
        rng_state = np.random.default_rng(0)
        clipart = world.sample_images("plastic", 5, domain="clipart", rng=rng_state)
        assert not np.allclose(natural, clipart)

    def test_domain_cached_and_consistent(self, world):
        assert world.domain("clipart") is world.domain("clipart")


class TestExtensibility:
    def test_add_concept_prototype_blends_anchors(self, graph):
        world = VisualWorld(graph, WorldSpec(image_dim=16, seed=0))
        prototype = world.add_concept_prototype("oatghurt",
                                                anchors=["yoghurt", "carton"],
                                                jitter=0.0, seed=0)
        expected = (world.prototype("yoghurt") + world.prototype("carton")) / 2
        np.testing.assert_allclose(prototype, expected, atol=1e-9)
        assert "oatghurt" in world

    def test_add_concept_prototype_requires_anchors(self, world):
        with pytest.raises(ValueError):
            world.add_concept_prototype("nothing", anchors=[])

    def test_add_concept_prototype_weights_validated(self, world):
        with pytest.raises(ValueError):
            world.add_concept_prototype("bad", anchors=["plastic"], weights=[0.5, 0.5])


class TestSemanticCoupling:
    def test_shared_embeddings_drive_prototypes(self, graph):
        """Two worlds built from the same embeddings produce the same semantic
        component, while different embeddings produce different prototypes."""
        from repro.kg import generate_text_embeddings

        shared = generate_text_embeddings(graph, dim=32, seed=7)
        world_a = VisualWorld(graph, WorldSpec(image_dim=16, seed=1),
                              semantic_embeddings=shared)
        world_b = VisualWorld(graph, WorldSpec(image_dim=16, seed=1),
                              semantic_embeddings=shared)
        np.testing.assert_allclose(world_a.prototype("plastic"),
                                   world_b.prototype("plastic"))
