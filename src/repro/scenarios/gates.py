"""Non-advisory robustness gates: per-scenario accuracy and margin floors.

A :class:`Gate` asserts one of two things about a scenario's recorded rows:

* ``accuracy`` — the method's final-stage accuracy must not fall below a
  floor.  Like the float32 parity gate, the floor is calibrated against the
  pinned scenario workspace with a wide safety margin, so a breach means a
  real regression, not noise;
* ``margin`` — the method must beat a baseline by at least ``floor``
  (``accuracy(method) − accuracy(baseline) ≥ floor``), used where the paper
  predicts TAGLETS' auxiliary data gives it a structural advantage over
  supervised fine-tuning (the scarce-label regimes).

:class:`GateRegistry.check` evaluates every registered gate whose scenario
appears in the given rows (so smoke subsets only face their own gates);
``assert_all`` raises :class:`GateFailure` naming every breach — the CI
``scenario-smoke`` job and the ``-m scenarios`` full sweep both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.runner import ExperimentResult

__all__ = ["Gate", "GateReport", "GateFailure", "GateRegistry",
           "DEFAULT_GATES", "default_registry"]


@dataclass(frozen=True)
class Gate:
    """One floor over one scenario's rows."""

    scenario: str
    metric: str = "accuracy"          # "accuracy" | "margin"
    floor: float = 0.0
    method: str = "taglets"
    #: only for ``margin`` gates: the method being beaten
    baseline: str = "finetune"

    def __post_init__(self):
        if self.metric not in ("accuracy", "margin"):
            raise ValueError(
                f"unknown gate metric {self.metric!r}; expected 'accuracy' "
                f"or 'margin'")

    def describe(self) -> str:
        if self.metric == "accuracy":
            return (f"{self.scenario}: {self.method} accuracy >= "
                    f"{self.floor:.2f}")
        return (f"{self.scenario}: {self.method} - {self.baseline} margin >= "
                f"{self.floor:.2f}")


@dataclass
class GateReport:
    """The outcome of evaluating one gate against a set of rows."""

    gate: Gate
    observed: Optional[float]
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        observed = "n/a" if self.observed is None else f"{self.observed:.3f}"
        return f"[{status}] {self.gate.describe()} (observed {observed})"


class GateFailure(AssertionError):
    """Raised by :meth:`GateRegistry.assert_all` when any floor is breached."""


def _mean_accuracy(rows: Sequence[ExperimentResult]) -> float:
    return float(np.mean([row.accuracy for row in rows]))


class GateRegistry:
    """The set of floors guarding the scenario grid."""

    def __init__(self, gates: Iterable[Gate] = ()):
        self._gates: List[Gate] = []
        for gate in gates:
            self.register(gate)

    def register(self, gate: Gate) -> None:
        self._gates.append(gate)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self):
        return iter(self._gates)

    def gates_for(self, scenario: str) -> List[Gate]:
        return [g for g in self._gates if g.scenario == scenario]

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def check(self, results: Iterable[ExperimentResult],
              require_all: bool = False) -> List[GateReport]:
        """Evaluate gates against rows; mean over seeds when several exist.

        By default only gates whose scenario has at least one row are
        evaluated (a smoke subset is not failed for scenarios it never ran);
        ``require_all=True`` additionally fails gates with no rows at all —
        the full-grid sweep uses it so a silently-skipped scenario cannot
        pass.
        """
        by_key: Dict[Tuple[str, str], List[ExperimentResult]] = {}
        scenarios_present = set()
        for row in results:
            scenarios_present.add(row.scenario)
            by_key.setdefault((row.scenario, row.method), []).append(row)

        reports: List[GateReport] = []
        for gate in self._gates:
            if gate.scenario not in scenarios_present:
                if require_all:
                    reports.append(GateReport(
                        gate=gate, observed=None, passed=False,
                        detail="no rows recorded for this scenario"))
                continue
            method_rows = by_key.get((gate.scenario, gate.method))
            if not method_rows:
                reports.append(GateReport(
                    gate=gate, observed=None, passed=False,
                    detail=f"no rows for method {gate.method!r}"))
                continue
            if gate.metric == "accuracy":
                observed = _mean_accuracy(method_rows)
                passed = observed >= gate.floor
                detail = (f"accuracy {observed:.3f} vs floor {gate.floor:.3f} "
                          f"({len(method_rows)} row(s))")
            else:
                baseline_rows = by_key.get((gate.scenario, gate.baseline))
                if not baseline_rows:
                    reports.append(GateReport(
                        gate=gate, observed=None, passed=False,
                        detail=f"no rows for baseline {gate.baseline!r}"))
                    continue
                observed = (_mean_accuracy(method_rows)
                            - _mean_accuracy(baseline_rows))
                passed = observed >= gate.floor
                detail = (f"margin {observed:.3f} vs floor {gate.floor:.3f} "
                          f"({gate.method} {_mean_accuracy(method_rows):.3f}, "
                          f"{gate.baseline} {_mean_accuracy(baseline_rows):.3f})")
            reports.append(GateReport(gate=gate, observed=observed,
                                      passed=passed, detail=detail))
        return reports

    def assert_all(self, results: Iterable[ExperimentResult],
                   require_all: bool = False) -> List[GateReport]:
        """Raise :class:`GateFailure` naming every breached floor."""
        reports = self.check(results, require_all=require_all)
        failures = [r for r in reports if not r.passed]
        if failures:
            lines = [f"{len(failures)} scenario gate(s) breached:"]
            lines += [f"  {report} — {report.detail}" for report in failures]
            raise GateFailure("\n".join(lines))
        return reports


#: Floors calibrated on the pinned scenario workspace (see SCENARIOS.json
#: for the recorded values they guard).  Floors sit well below the recorded
#: accuracies so only a real regression — not BLAS jitter — can breach them.
DEFAULT_GATES: Tuple[Gate, ...] = (
    # clean reference (recorded 0.76 at seed 0)
    Gate("fmd_5shot_clean", "accuracy", 0.55),
    # scarcity — including the paper-predicted taglets-over-supervised
    # margins (fmd_1shot recorded 0.64/0.68/0.64 over seeds 0-2 with margins
    # +0.28/+0.28/+0.20; grocery_1shot 0.52/0.54/0.45 with margins
    # +0.34/+0.38/+0.25)
    Gate("fmd_1shot", "accuracy", 0.45),
    Gate("fmd_1shot", "margin", 0.10, baseline="finetune"),
    Gate("fmd_20shot", "accuracy", 0.60),
    Gate("grocery_1shot", "accuracy", 0.30),
    Gate("grocery_1shot", "margin", 0.12, baseline="finetune"),
    # imbalance (recorded 0.66-0.74 / 0.64)
    Gate("fmd_5shot_imbalanced", "accuracy", 0.45),
    Gate("cifar_5shot_imbalanced", "accuracy", 0.45),
    # corruption (recorded 0.36-0.48 / 0.46-0.58 / 0.53-0.70)
    Gate("fmd_5shot_noise_s3", "accuracy", 0.22),
    Gate("fmd_5shot_occlusion_s2", "accuracy", 0.30),
    Gate("cifar_5shot_mixing_s2", "accuracy", 0.38),
    # shift (recorded 0.30-0.34 / 0.77)
    Gate("fmd_shift_smartphone", "accuracy", 0.18),
    Gate("cifar_shift_product", "accuracy", 0.55),
    # incremental (recorded 0.87)
    Gate("cifar_incremental_2phase", "accuracy", 0.60),
    # streaming (recorded 0.76 / 0.58)
    Gate("fmd_5shot_streamed", "accuracy", 0.55),
    Gate("fmd_5shot_quarter_pool", "accuracy", 0.40),
)


def default_registry() -> GateRegistry:
    """The registry holding every calibrated default floor."""
    return GateRegistry(DEFAULT_GATES)
