"""Tests for scenario specs: axis transforms, staging, and the grid itself."""

import numpy as np
import pytest

from repro.scenarios import (FAMILIES, SCENARIO_GRID, SMOKE_SCENARIOS,
                             CorruptionAxis, ScenarioSpec, apply_corruption,
                             apply_imbalance)


@pytest.fixture(scope="module")
def clean_spec():
    return ScenarioSpec(name="probe_clean", family="clean", dataset="fmd",
                        shots=5)


class TestGridCoverage:
    def test_grid_covers_every_family(self):
        covered = {spec.family for spec in SCENARIO_GRID.values()}
        assert covered == set(FAMILIES)
        assert len(covered) >= 5  # the issue's floor; we cover all seven

    def test_smoke_subset_spans_families(self):
        covered = {SCENARIO_GRID[name].family for name in SMOKE_SCENARIOS}
        assert len(covered) >= 5
        assert set(SMOKE_SCENARIOS) <= set(SCENARIO_GRID)

    def test_names_are_keys(self):
        for name, spec in SCENARIO_GRID.items():
            assert spec.name == name


class TestBuildDeterminism:
    @pytest.mark.parametrize("name", ["fmd_5shot_imbalanced",
                                      "fmd_5shot_noise_s3",
                                      "fmd_5shot_streamed"])
    def test_two_builds_bit_identical(self, name, tiny_workspace):
        spec = SCENARIO_GRID[name]
        first = spec.build(tiny_workspace)
        second = spec.build(tiny_workspace)
        assert len(first) == len(second)
        for left, right in zip(first, second):
            np.testing.assert_array_equal(left.labeled_features,
                                          right.labeled_features)
            np.testing.assert_array_equal(left.labeled_labels,
                                          right.labeled_labels)
            np.testing.assert_array_equal(left.unlabeled_features,
                                          right.unlabeled_features)
            np.testing.assert_array_equal(left.test_features,
                                          right.test_features)


class TestImbalance:
    def test_geometric_profile_and_pool_transfer(self, fmd_split):
        ratio = 0.2
        imbalanced = apply_imbalance(fmd_split, ratio, seed=0)
        counts = np.bincount(imbalanced.labeled_labels,
                             minlength=fmd_split.num_classes)
        shots = np.bincount(fmd_split.labeled_labels).max()
        # head keeps every shot, tail keeps max(1, round(shots * ratio))
        assert counts.max() == shots
        assert counts.min() == max(1, round(shots * ratio))
        # dropped labels moved into the unlabeled pool, none lost
        dropped = len(fmd_split.labeled_labels) - len(imbalanced.labeled_labels)
        assert dropped > 0
        assert (len(imbalanced.unlabeled_features)
                == len(fmd_split.unlabeled_features) + dropped)
        # test set untouched
        np.testing.assert_array_equal(imbalanced.test_features,
                                      fmd_split.test_features)

    def test_invalid_ratio(self, fmd_split):
        with pytest.raises(ValueError):
            apply_imbalance(fmd_split, 0.0)


class TestCorruptionTargeting:
    def test_test_only_corruption_leaves_training_data(self, fmd_split):
        axis = CorruptionAxis(kind="gaussian_noise", severity=3,
                              targets=("test",))
        corrupted = apply_corruption(fmd_split, axis, seed=0)
        np.testing.assert_array_equal(corrupted.labeled_features,
                                      fmd_split.labeled_features)
        np.testing.assert_array_equal(corrupted.unlabeled_features,
                                      fmd_split.unlabeled_features)
        assert not np.array_equal(corrupted.test_features,
                                  fmd_split.test_features)

    def test_unlabeled_target_hits_pool(self, fmd_split):
        axis = CorruptionAxis(kind="mixing", severity=2,
                              targets=("unlabeled", "test"))
        corrupted = apply_corruption(fmd_split, axis, seed=0)
        assert not np.array_equal(corrupted.unlabeled_features,
                                  fmd_split.unlabeled_features)
        np.testing.assert_array_equal(corrupted.labeled_features,
                                      fmd_split.labeled_features)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            CorruptionAxis(kind="nope", severity=1)
        with pytest.raises(ValueError):
            CorruptionAxis(kind="occlusion", severity=9)
        with pytest.raises(ValueError):
            CorruptionAxis(kind="occlusion", severity=1, targets=("train",))


class TestIncrementalStages:
    def test_stages_grow_to_full_task(self, tiny_workspace):
        spec = ScenarioSpec(name="probe_incr", family="incremental",
                            dataset="fmd", shots=5, phases=2)
        stages = spec.build(tiny_workspace)
        full = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
        first, last = stages
        assert 0 < len(first.classes) < full.num_classes
        assert len(last.classes) == full.num_classes
        # labels remapped to a dense range in every stage
        for stage in stages:
            assert set(np.unique(stage.labeled_labels)) == set(
                range(len(stage.classes)))
            # the unlabeled pool keeps future classes (deliberate pollution)
            assert len(stage.unlabeled_features) == len(
                full.unlabeled_features)
        assert len(last.test_labels) == len(full.test_labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="incremental", phases=1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="incremental", phases=2,
                         stream_chunks=2)


class TestStreamingStages:
    def test_pool_grows_chunkwise(self, tiny_workspace):
        spec = ScenarioSpec(name="probe_stream", family="streaming",
                            dataset="fmd", shots=5, stream_chunks=3)
        stages = spec.build(tiny_workspace)
        full = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
        sizes = [len(stage.unlabeled_features) for stage in stages]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
        assert sizes[-1] == len(full.unlabeled_features)
        for stage in stages:  # labeled/test fixed across stages
            np.testing.assert_array_equal(stage.labeled_features,
                                          full.labeled_features)
            np.testing.assert_array_equal(stage.test_features,
                                          full.test_features)

    def test_fraction_shrinks_pool(self, tiny_workspace):
        spec = ScenarioSpec(name="probe_frac", family="streaming",
                            dataset="fmd", shots=5, unlabeled_fraction=0.25)
        (stage,) = spec.build(tiny_workspace)
        full = tiny_workspace.make_task_split("fmd", shots=5, split_seed=0)
        assert len(stage.unlabeled_features) == round(
            0.25 * len(full.unlabeled_features))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="streaming", stream_chunks=1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="streaming", unlabeled_fraction=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", family="not_a_family")


class TestAxesMetadata:
    def test_axes_flatten_every_set_axis(self):
        spec = ScenarioSpec(
            name="probe_axes", family="corruption", shots=1, imbalance=0.5,
            corruption=CorruptionAxis("occlusion", 4, targets=("test",)),
            shift="smartphone")
        axes = spec.axes()
        assert axes == {"shots": 1, "imbalance": 0.5,
                        "corruption": "occlusion", "severity": 4,
                        "corruption_targets": ["test"],
                        "shift": "smartphone"}

    def test_clean_spec_axes_minimal(self, clean_spec):
        assert clean_spec.axes() == {"shots": 5}
