"""Shared helpers for the benchmark harness (grid, cache, reporting).

Every benchmark regenerates one of the paper's tables or figures.  They all
draw from the same experimental grid (method × dataset × shots × split ×
backbone × seed), so a session-scoped :class:`RecordCache` memoizes every
cell: a figure benchmark that needs the same TAGLETS runs as a table
benchmark reuses them instead of re-training.

Grid size is controlled by environment variables so the default run stays
laptop-friendly while a full run reproduces the paper's complete grid:

* ``REPRO_BENCH_SEEDS``     — comma-separated training seeds  (default ``0``)
* ``REPRO_BENCH_SPLITS``    — comma-separated split seeds     (default ``0``)
* ``REPRO_BENCH_BACKBONES`` — comma-separated backbones       (default ``resnet50``)
* ``REPRO_BENCH_FULL=1``    — shorthand for seeds 0,1,2 / splits 0,1,2 /
  backbones resnet50,bit (the paper's full grid)
* ``REPRO_BENCH_SCALE``     — ``small`` (default) or ``full`` workspace
  (read by the ``bench_workspace`` fixture in ``conftest.py``)

Each benchmark prints the regenerated rows/series and also writes them to
``benchmarks/results/<name>.txt`` so they can be compared against the paper
after the run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evaluation import ExperimentResult, ExperimentRunner

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _env_list(name: str, default: str) -> List[str]:
    return [item.strip() for item in os.environ.get(name, default).split(",")
            if item.strip()]


def _env_int_list(name: str, default: str) -> List[int]:
    return [int(item) for item in _env_list(name, default)]


class BenchGrid:
    """The experimental grid the benchmarks sweep, derived from the environment."""

    def __init__(self) -> None:
        full = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
        self.seeds = _env_int_list("REPRO_BENCH_SEEDS", "0,1,2" if full else "0")
        self.split_seeds = _env_int_list("REPRO_BENCH_SPLITS",
                                         "0,1,2" if full else "0")
        self.backbones = _env_list("REPRO_BENCH_BACKBONES",
                                   "resnet50,bit" if full else "resnet50")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"BenchGrid(seeds={self.seeds}, splits={self.split_seeds}, "
                f"backbones={self.backbones})")


class RecordCache:
    """Memoizes experiment cells so benchmarks can share runs."""

    def __init__(self, runner: ExperimentRunner):
        self.runner = runner
        self._cache: Dict[Tuple, ExperimentResult] = {}

    def get(self, method: str, dataset: str, shots: int, split_seed: int,
            backbone: str, seed: int) -> ExperimentResult:
        key = (method, dataset, shots, split_seed, backbone, seed)
        if key not in self._cache:
            self._cache[key] = self.runner.evaluate(method, dataset, shots,
                                                    split_seed, backbone, seed)
        return self._cache[key]

    def collect(self, methods: Sequence[str], datasets: Sequence[str],
                shots_list: Sequence[int], grid: BenchGrid,
                split_seeds: Optional[Sequence[int]] = None
                ) -> List[ExperimentResult]:
        """Gather (running if needed) all records of a sub-grid."""
        records: List[ExperimentResult] = []
        for dataset in datasets:
            for shots in shots_list:
                for split_seed in (split_seeds or grid.split_seeds):
                    for backbone in grid.backbones:
                        for method in methods:
                            for seed in grid.seeds:
                                records.append(self.get(method, dataset, shots,
                                                        split_seed, backbone, seed))
        return records


def write_report(name: str, text: str) -> str:
    """Print a regenerated table/series and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return path


def print_bench_row(section: str, payload: dict) -> None:
    """Print one section of the engine, serving or capacity benchmark.

    Runs only print: the committed ``BENCH_engine.json`` and
    ``BENCH_serve.json`` are a frozen record, not rewritten by a run.
    """
    print(f"\n{section}: {json.dumps(payload, indent=2)}")


