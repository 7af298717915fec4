"""Scenario-matrix smoke: sweep the representative grid subset, assert gates.

This is the CI ``scenario-smoke`` job (NOT advisory — every check is an
exact floor):

1. build the pinned scenario workspace,
2. run the ``SMOKE_SCENARIOS`` subset (one cell per regime family) with both
   the TAGLETS pipeline and the supervised fine-tuning baseline,
3. assert every calibrated gate over those rows — per-scenario accuracy
   floors plus the taglets-beats-supervised margin floors in the scarce-label
   regimes,
4. assert every scenario-grid training loop replayed with ZERO eager
   fallbacks,
5. cross-check the committed ``SCENARIOS.json`` scoreboard: it must cover
   every grid scenario, its floors must match the in-code gate registry, and
   every recorded gate outcome must be a pass.

``--full`` sweeps the whole grid instead of the subset; ``--write``
additionally regenerates ``SCENARIOS.json`` from the full sweep (use it when
adding scenarios or recalibrating floors).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import _blas_threads  # noqa: F401  (pins BLAS threads before numpy loads)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.evaluation import ExperimentRunner
from repro.scenarios import (SCENARIO_GRID, SMOKE_SCENARIOS, GateFailure,
                             default_registry, format_scoreboard,
                             load_scoreboard, scenario_workspace,
                             write_scoreboard)

SCOREBOARD_PATH = os.path.join(os.path.dirname(__file__), "..",
                               "SCENARIOS.json")


def check_scoreboard_consistency(registry) -> None:
    """The committed scoreboard must mirror the in-code grid and gates."""
    scoreboard = load_scoreboard(SCOREBOARD_PATH)
    recorded = scoreboard["scenarios"]
    missing = sorted(set(SCENARIO_GRID) - set(recorded))
    if missing:
        raise SystemExit(f"SCENARIOS.json is missing grid scenarios: {missing}")
    for name, entry in recorded.items():
        recorded_floors = {(g["metric"], g["method"], g["floor"])
                           for g in entry["gates"]}
        registry_floors = {(g.metric, g.method, g.floor)
                           for g in registry.gates_for(name)}
        if recorded_floors != registry_floors:
            raise SystemExit(
                f"SCENARIOS.json floors for {name!r} diverge from the gate "
                f"registry: recorded {sorted(recorded_floors)}, registry "
                f"{sorted(registry_floors)} — rerun with --full --write")
        failed = [g for g in entry["gates"] if not g["passed"]]
        if failed:
            raise SystemExit(
                f"SCENARIOS.json records breached gates for {name!r}: {failed}")
    print(f"SCENARIOS.json consistent: {len(recorded)} scenarios, "
          f"{sum(len(e['gates']) for e in recorded.values())} recorded gates, "
          f"all passing")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="sweep the whole grid, not just the smoke subset")
    parser.add_argument("--write", action="store_true",
                        help="regenerate SCENARIOS.json (implies --full)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="training seeds per cell (default 1)")
    args = parser.parse_args()
    if args.write:
        args.full = True

    names = tuple(SCENARIO_GRID) if args.full else SMOKE_SCENARIOS
    specs = [SCENARIO_GRID[name] for name in names]
    print(f"Scenario {'full grid' if args.full else 'smoke subset'}: "
          f"{len(specs)} scenarios x (taglets + finetune) x "
          f"{args.seeds} seed(s)")

    started = time.perf_counter()
    workspace = scenario_workspace()
    print(f"workspace built in {time.perf_counter() - started:.1f}s")

    runner = ExperimentRunner(workspace)
    rows = runner.run_grid(specs, methods=("taglets", "finetune"),
                           seeds=tuple(range(args.seeds)))
    registry = default_registry()
    try:
        reports = registry.assert_all(rows, require_all=args.full)
    except GateFailure as failure:
        print(format_scoreboard(rows))
        print(f"\nFAIL: {failure}")
        return 1

    print(format_scoreboard(rows, reports))
    print(f"\nswept {len(rows)} rows in {time.perf_counter() - started:.1f}s")

    # Zero-fallback invariant: every scenario training loop is a static
    # graph; an eager fallback means the replay executor regressed.
    fallback_rows = [row for row in rows if row.fallbacks]
    if fallback_rows:
        print(f"FAIL: replay fallbacks in scenario loops: "
              f"{[(r.scenario, r.fallbacks) for r in fallback_rows]}")
        return 1
    print("zero replay fallbacks across every scenario loop")

    if args.write:
        write_scoreboard(SCOREBOARD_PATH, rows, reports)
        print(f"wrote {os.path.abspath(SCOREBOARD_PATH)}")

    check_scoreboard_consistency(registry)
    print("\nscenario smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
