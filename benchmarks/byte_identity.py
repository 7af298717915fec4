"""Byte identity, parent against head: the same digests or a declared move.

Runs this checkout's ``benchmarks/output_digests.py`` against the sources of
two checkouts, the base (a merge base or parent) and the head (this
checkout), at seed 1 and seed 2 in float32 and at seed 1 in float64, on
this one host at one BLAS thread, and compares the lines.  OpenBLAS picks kernels per CPU, so a
committed golden file would differ across hosts; two runs on the same host
agree exactly when no output byte changed.

A line that differs fails the check unless the head's CHANGES.md adds a
line that starts with ``Re-baseline:`` and names its task (``fmd/1``,
``zsl_kg/cold``, ...); the tasks it does not name must still match.  The
marker inside a sentence declares nothing.  Usage::

    git archive <base-commit> | tar -x -C ../base
    python benchmarks/byte_identity.py --base ../base

Exits 0 when every line matches or every moved task is declared, 1 if not.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: the head: the checkout this script belongs to
HEAD = os.path.dirname(HERE)
if HEAD not in sys.path:
    sys.path.insert(0, HEAD)

import _blas_threads  # noqa: E402,F401  (the digest runs inherit the pins)
from perfbench.common import host_fingerprint  # noqa: E402

DIGESTS = os.path.join(HERE, "output_digests.py")
#: the configurations compared, as ``output_digests.py`` arguments
RUNS = (("1", "float32"), ("2", "float32"), ("1", "float64"))
REBASELINE = "Re-baseline:"


def digest_lines(checkout: str, seed: str, dtype: str) -> Dict[str, str]:
    """``task -> line`` from one ``output_digests.py`` run on the sources
    of ``checkout``."""
    result = subprocess.run(
        [sys.executable, DIGESTS, "--seed", seed, "--dtype", dtype],
        env=dict(os.environ, PYTHONPATH=os.path.join(checkout, "src")),
        cwd=checkout, capture_output=True,
        text=True)
    if result.returncode != 0:
        raise SystemExit(f"output_digests.py failed in {checkout} "
                         f"(seed {seed}, {dtype}):\n{result.stderr}")
    return {line.split(" ", 1)[0]: line
            for line in result.stdout.splitlines() if line.strip()}


def declared_tasks(base: str, head: str, known: Set[str]) -> Set[str]:
    """Tasks named on the lines the head's CHANGES.md adds that start
    with ``Re-baseline:``."""

    def lines(checkout: str) -> List[str]:
        path = os.path.join(checkout, "CHANGES.md")
        if not os.path.exists(path):
            return []
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()

    old = set(lines(base))
    declared: Set[str] = set()
    for line in lines(head):
        if line in old or not line.startswith(REBASELINE):
            continue
        declared.update(token for token in re.findall(r"[\w.-]+/[\w.-]+",
                                                      line)
                        if token in known)
    return declared


def compare(base: str, head: str) -> Tuple[List[str], Set[str], Set[str]]:
    """Run every configuration in both checkouts: ``(report lines,
    moved tasks, known tasks)``."""
    report: List[str] = []
    moved: Set[str] = set()
    known: Set[str] = set()
    for seed, dtype in RUNS:
        old = digest_lines(base, seed, dtype)
        new = digest_lines(head, seed, dtype)
        known.update(old, new)
        changed = sorted(task for task in set(old) | set(new)
                         if old.get(task) != new.get(task))
        report.append(f"seed {seed} {dtype}: {len(new)} lines, "
                      f"{len(changed)} differ")
        for task in changed:
            moved.add(task)
            report.append(f"  {task} differs")
            report.append(f"    base: {old.get(task, '<missing>')}")
            report.append(f"    head: {new.get(task, '<missing>')}")
    return report, moved, known


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="checkout of the merge base (or parent)")
    args = parser.parse_args()
    base = os.path.abspath(args.base)

    # Both checkouts' runs use this interpreter and this environment.
    print(f"host (base {base}, head {HEAD}): {host_fingerprint()}")
    report, moved, known = compare(base, HEAD)
    print("\n".join(report))
    declared = declared_tasks(base, HEAD, known)
    if declared:
        print(f"declared re-baseline: {' '.join(sorted(declared))}")
    undeclared = sorted(moved - declared)
    if undeclared:
        print(f"FAIL: output bytes moved without a declared re-baseline: "
              f"{' '.join(undeclared)}")
        return 1
    print("ok: every output byte matches"
          + (" outside the declared re-baseline" if moved else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
