"""Shared pieces of the benchmark: paths, the run context, statistics and
the host fingerprint stamped on every result."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for exported artifacts and written traces (inside the
#: checkout, ignored by git)
WORK = ROOT / ".perfbench"

#: thread-count variables BLAS / OpenMP read at import; pinned by
#: ``run.py``, recorded on every result, inherited by the serving subprocess
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def require_sources() -> None:
    """Make ``repro`` importable from the checkout, or stop before measuring."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {SRC}; run "
                         "from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Checks:
    """Output checks: every check is recorded by name, pass or fail."""

    def __init__(self) -> None:
        self.results: Dict[str, bool] = {}
        self.details: Dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        # A name checked repeatedly (once per pass) passes only if it always
        # held.
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok:
            self.details.setdefault(name, detail)

    @property
    def passed(self) -> bool:
        return all(self.results.values())


@dataclass
class Context:
    """Everything a workload needs from the command line."""

    seed: int
    seconds: float
    trace: bool
    #: tiny budgets for the benchmark's own tests
    short: bool = False
    checks: Checks = field(default_factory=Checks)
    #: the workload's own metrics, printed before the result line:
    #: name -> (value, unit)
    report: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer metrics of a traced run: name -> value
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def setup_repeats(self) -> int:
        return 1 if self.short else 5


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def timed_setups(ctx: Context, setup: Callable[[], object],
                 repeats: Optional[int] = None,
                 normalise: bool = True) -> object:
    """Run ``setup`` ``repeats`` times (default ``ctx.setup_repeats``);
    record the median time as ``setup_s`` and return the last set-up's
    product.  The time is host-speed normalised (``hostspeed``) unless
    ``normalise`` is false, for a set-up that mostly waits on another
    process."""
    from hostspeed import SpeedProbe

    durations: List[float] = []
    product = None
    for _ in range(repeats or ctx.setup_repeats):
        product = None  # release the previous set-up before the next
        with SpeedProbe() as probe:
            product = setup()
        durations.append(probe.seconds if normalise else probe.wall)
    ctx.report["setup_s"] = (median(durations), "s")
    return product


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_fingerprint() -> dict:
    import numpy as np
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV
                       if name in os.environ},
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
