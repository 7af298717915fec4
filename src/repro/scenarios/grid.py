"""The default scenario grid: many synthetic worlds, hard regimes.

Every entry is a :class:`~repro.scenarios.spec.ScenarioSpec` over the shared
*scenario workspace* — the same reduced-but-faithful workspace recipe the
test suite uses (small filler haystack, full SCADS/world machinery), so grid
accuracies are bit-reproducible between tier-1, the ``scenario-smoke`` CI
job, and a local run.

The grid covers the regime families the paper's claims must survive
(ROADMAP "Scenario matrix"): label scarcity, class imbalance, input
corruption, distribution shift, class-incremental arrivals, and streaming /
shrunken unlabeled pools.  ``SMOKE_SCENARIOS`` names the fast representative
subset (one cell per family) swept non-advisorily in CI;
``pytest -m scenarios`` sweeps the whole grid.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..kg import GraphSpec
from ..synth import WorldSpec
from ..workspace import Workspace, WorkspaceSpec
from .spec import CorruptionAxis, ScenarioSpec

__all__ = ["SCENARIO_GRID", "SMOKE_SCENARIOS", "scenario_workspace_spec",
           "scenario_workspace"]


def scenario_workspace_spec(seed: int = 0) -> WorkspaceSpec:
    """The workspace recipe every grid accuracy (and floor) is pinned to."""
    return WorkspaceSpec(graph=GraphSpec(num_filler_concepts=300, seed=seed),
                         world=WorldSpec(seed=seed),
                         scads_images_per_concept=30, seed=seed)


def scenario_workspace(seed: int = 0) -> Workspace:
    """Build the scenario workspace (≈1 s; reuse it across cells)."""
    return Workspace(scenario_workspace_spec(seed=seed))


_SPECS: Tuple[ScenarioSpec, ...] = (
    # -- clean reference ---------------------------------------------------- #
    ScenarioSpec(
        name="fmd_5shot_clean", family="clean", dataset="fmd", shots=5,
        description="Reference cell: FMD, 5-shot, untouched split."),
    # -- label scarcity ----------------------------------------------------- #
    ScenarioSpec(
        name="fmd_1shot", family="scarcity", dataset="fmd", shots=1,
        description="One label per class; auxiliary data must carry the task "
                    "(paper Tables 1/3, 1-shot columns)."),
    ScenarioSpec(
        name="fmd_20shot", family="scarcity", dataset="fmd", shots=20,
        description="Label-rich end of the scarcity curve."),
    ScenarioSpec(
        name="grocery_1shot", family="scarcity", dataset="grocery_store",
        shots=1,
        description="42 fine-grained classes (2 out-of-vocabulary) at one "
                    "shot — the regime where the paper predicts the largest "
                    "taglets margin (Table 2)."),
    # -- class imbalance ---------------------------------------------------- #
    ScenarioSpec(
        name="fmd_5shot_imbalanced", family="imbalance", dataset="fmd",
        shots=5, imbalance=0.2,
        description="Geometric head→tail profile: tail class keeps 1 of its "
                    "5 shots; dropped labels rejoin the unlabeled pool."),
    ScenarioSpec(
        name="cifar_5shot_imbalanced", family="imbalance",
        dataset="cifar_demo", shots=5, imbalance=0.2,
        description="Same imbalance profile on the artifact-demo task."),
    # -- input corruption --------------------------------------------------- #
    ScenarioSpec(
        name="fmd_5shot_noise_s3", family="corruption", dataset="fmd",
        shots=5, corruption=CorruptionAxis("gaussian_noise", severity=3),
        description="Severity-3 Gaussian noise on the test set."),
    ScenarioSpec(
        name="fmd_5shot_occlusion_s2", family="corruption", dataset="fmd",
        shots=5, corruption=CorruptionAxis("occlusion", severity=2),
        description="A quarter of each test image's feature grid blanked."),
    ScenarioSpec(
        name="cifar_5shot_mixing_s2", family="corruption",
        dataset="cifar_demo", shots=5,
        corruption=CorruptionAxis("mixing", severity=2,
                                  targets=("unlabeled", "test")),
        description="Style mixing on the unlabeled pool AND the test set — "
                    "corrupted pseudo-label inputs, not just corrupted "
                    "evaluation."),
    # -- distribution shift ------------------------------------------------- #
    ScenarioSpec(
        name="fmd_shift_smartphone", family="shift", dataset="fmd", shots=5,
        shift="smartphone",
        description="Train on natural photos, test through the smartphone "
                    "domain (blur + exposure jitter)."),
    ScenarioSpec(
        name="cifar_shift_product", family="shift", dataset="cifar_demo",
        shots=5, shift="product",
        description="Test images re-rendered catalogue-style (mild affine "
                    "shift)."),
    # -- class-incremental arrivals ----------------------------------------- #
    ScenarioSpec(
        name="cifar_incremental_2phase", family="incremental",
        dataset="cifar_demo", shots=5, phases=2,
        description="Half the classes arrive first, the rest later; the "
                    "unlabeled pool always contains future classes."),
    # -- streaming unlabeled pools ------------------------------------------ #
    ScenarioSpec(
        name="fmd_5shot_streamed", family="streaming", dataset="fmd", shots=5,
        stream_chunks=2,
        description="The unlabeled pool arrives in two cumulative chunks; "
                    "the gated accuracy is after the final chunk."),
    ScenarioSpec(
        name="fmd_5shot_quarter_pool", family="streaming", dataset="fmd",
        shots=5, unlabeled_fraction=0.25,
        description="Only a quarter of the unlabeled pool ever arrives."),
)

#: name -> spec for the whole grid.
SCENARIO_GRID: Dict[str, ScenarioSpec] = {spec.name: spec for spec in _SPECS}

#: The fast representative subset (one cell per regime family) that the
#: non-advisory ``scenario-smoke`` CI job sweeps on every push.
SMOKE_SCENARIOS: Tuple[str, ...] = (
    "fmd_1shot",                 # scarcity + the gated taglets-vs-supervised margin
    "fmd_5shot_imbalanced",      # imbalance
    "fmd_5shot_noise_s3",        # corruption
    "fmd_shift_smartphone",      # shift
    "cifar_incremental_2phase",  # incremental
    "fmd_5shot_streamed",        # streaming
)
