"""Pytest fixtures for the benchmark harness.

The grid the benchmarks sweep, the record cache they share and the
environment variables that size them are described in ``_bench_lib.py``.
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

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)
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
