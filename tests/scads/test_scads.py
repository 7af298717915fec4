"""Tests for the SCADS repository."""

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, Relation
from repro.scads import Scads


@pytest.fixture()
def graph():
    graph = KnowledgeGraph()
    graph.add_edge("material", "entity", relation=Relation.IS_A)
    graph.add_edge("plastic", "material", relation=Relation.IS_A)
    graph.add_edge("cling_film", "plastic", relation=Relation.IS_A)
    graph.add_edge("stone", "material", relation=Relation.IS_A)
    graph.add_edge("yoghurt", "entity", relation=Relation.IS_A)
    return graph


@pytest.fixture()
def scads(graph):
    scads = Scads(graph)
    rng = np.random.default_rng(0)
    scads.install_dataset("demo", {
        "plastic": rng.normal(size=(10, 4)),
        "cling_film": rng.normal(size=(8, 4)),
        "stone": rng.normal(size=(6, 4)),
    })
    return scads


def total_images(scads):
    return sum(len(scads.get_images(c)) for c in scads.concepts_with_images())


class TestInstallation:
    def test_install_counts(self, scads):
        assert total_images(scads) == 24
        assert len(scads.get_images("plastic")) == 10
        assert scads.image_dim == 4

    def test_install_unknown_concept(self, graph):
        scads = Scads(graph)
        with pytest.raises(KeyError):
            scads.install_dataset("bad", {"unknown": np.zeros((2, 4))})

    def test_install_bad_shape(self, graph):
        scads = Scads(graph)
        with pytest.raises(ValueError):
            scads.install_dataset("bad", {"plastic": np.zeros(4)})

    def test_duplicate_dataset_name(self, scads):
        with pytest.raises(ValueError):
            scads.install_dataset("demo", {"stone": np.zeros((1, 4))})

    def test_install_appends_to_existing_concept(self, scads, graph):
        scads.install_dataset("more", {"plastic": np.zeros((5, 4))})
        assert len(scads.get_images("plastic")) == 15

    def test_image_dim_requires_installation(self, graph):
        with pytest.raises(RuntimeError):
            Scads(graph).image_dim


class TestRetrieval:
    def test_get_images_full_and_limited(self, scads):
        full = scads.get_images("plastic")
        assert full.shape == (10, 4)
        limited = scads.get_images("plastic", limit=3, rng=np.random.default_rng(0))
        assert limited.shape == (3, 4)

    def test_get_images_unknown(self, scads):
        with pytest.raises(KeyError):
            scads.get_images("yoghurt")

    def test_concepts_with_images(self, scads):
        assert set(scads.concepts_with_images()) == {"plastic", "cling_film", "stone"}
        assert scads.has_images("plastic")
        assert not scads.has_images("yoghurt")


class TestExtensibility:
    def test_add_node_with_edges(self, scads):
        scads.add_node("oatghurt", edges=[("yoghurt", Relation.RELATED_TO)])
        assert "oatghurt" in scads.graph
        assert [n for n, _, _ in scads.graph.neighbors("oatghurt")] == ["yoghurt"]

    def test_add_node_then_install(self, scads):
        scads.add_node("oatghurt", edges=[("yoghurt", Relation.RELATED_TO)])
        scads.install_dataset("user", {"oatghurt": np.zeros((3, 4))})
        assert len(scads.get_images("oatghurt")) == 3


class TestPruning:
    def test_prune_level_0_excludes_class_and_descendants(self, scads):
        pruned = scads.pruned(["plastic"], level=0)
        assert not pruned.has_images("plastic")
        assert not pruned.has_images("cling_film")
        assert pruned.has_images("stone")
        assert pruned.excluded_concepts == {"plastic", "cling_film"}

    def test_prune_level_1_excludes_parent_subtree(self, scads):
        pruned = scads.pruned(["plastic"], level=1)
        assert not pruned.has_images("stone")

    def test_prune_none_is_noop_view(self, scads):
        pruned = scads.pruned(["plastic"], level=None)
        assert pruned.has_images("plastic")

    def test_prune_does_not_mutate_original(self, scads):
        scads.pruned(["plastic"], level=1)
        assert scads.has_images("plastic")
        assert total_images(scads) == 24

    def test_prune_unknown_class_ignored(self, scads):
        pruned = scads.pruned(["not_there"], level=0)
        assert total_images(pruned) == 24
