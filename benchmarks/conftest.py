"""Pytest fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  They all
draw from the same experimental grid (method × dataset × shots × split ×
backbone × seed), so a session-scoped :class:`~_bench_lib.RecordCache`
memoizes every cell: a figure benchmark that needs the same TAGLETS runs as a
table benchmark reuses them instead of re-training.

Grid size is controlled by environment variables so the default run stays
laptop-friendly while a full run reproduces the paper's complete grid:

* ``REPRO_BENCH_SEEDS``     — comma-separated training seeds  (default ``0``)
* ``REPRO_BENCH_SPLITS``    — comma-separated split seeds     (default ``0``)
* ``REPRO_BENCH_BACKBONES`` — comma-separated backbones       (default ``resnet50``)
* ``REPRO_BENCH_FULL=1``    — shorthand for seeds 0,1,2 / splits 0,1,2 /
  backbones resnet50,bit (the paper's full grid)
* ``REPRO_BENCH_SCALE``     — ``small`` (default) or ``full`` workspace

Each benchmark prints the regenerated rows/series and also writes them to
``benchmarks/results/<name>.txt`` (compare against the paper via EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import sys

import pytest

# Resolve ``_bench_lib`` regardless of pytest's rootdir: collecting the whole
# repo (rootdir ``/.../repo``) does not put ``benchmarks/`` on sys.path, so
# insert it explicitly before the import.
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from _bench_lib import BenchGrid, RecordCache
from repro.evaluation import ExperimentRunner
from repro.workspace import build_workspace


def pytest_collection_modifyitems(items):
    """Mark everything under ``benchmarks/`` with the ``bench`` marker."""
    for item in items:
        if _BENCH_DIR in str(getattr(item, "fspath", "")):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def bench_grid() -> BenchGrid:
    return BenchGrid()


@pytest.fixture(scope="session")
def bench_workspace():
    """The benchmark workspace (graph + world + SCADS + backbones + datasets)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    return build_workspace(scale=scale, seed=0)


@pytest.fixture(scope="session")
def record_cache(bench_workspace) -> RecordCache:
    return RecordCache(ExperimentRunner(bench_workspace))
