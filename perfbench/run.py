"""The repository benchmark: TAGLETS training and serving, end to end.

    python3 perfbench/run.py --workload train_cold --seed 1 --seconds 15 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
root of the checkout; ``perfbench/README.md`` says what each one means.
With ``--trace 0`` the last line of standard output is one JSON object
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead, and the spans are written to
``.perfbench/trace-<workload>.json``.  Lines before it report the
workload's own metrics, the output checks and the host fingerprint.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (ROOT, THREAD_ENV, WORK, Context,  # noqa: E402
                    host_fingerprint, peak_rss_mb, require_sources)
from spans import Tracer  # noqa: E402

WORKLOADS = ("train_cold", "train_sweep", "serve_open", "serve_http")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def run_workload(ctx: Context, workload: str, tracer: Tracer) -> None:
    import serve_http
    import serve_open
    import serving
    import train

    if workload.startswith("train_"):
        bench, result = getattr(train, workload)(ctx, tracer)
        if not ctx.trace:
            return
        # The serving layers still report in this traced run, from short
        # probes of the model the workload just trained.
        artifacts = serving.export(result, bench, workload)
        try:
            serve_open.run(ctx, tracer, artifacts, probe=True)
            serve_http.run(ctx, tracer, artifacts, probe=True)
        finally:
            serving.remove(artifacts)
        return
    artifacts = serving.train_served_model(ctx, tracer, workload)
    try:
        main, other = ((serve_open, serve_http) if workload == "serve_open"
                       else (serve_http, serve_open))
        main.run(ctx, tracer, artifacts)
        if ctx.trace:
            other.run(ctx, tracer, artifacts, probe=True)
    finally:
        serving.remove(artifacts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny budgets, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # One BLAS / OpenMP thread unless the environment says otherwise, set
    # before numpy loads and inherited by the serving subprocess.  With the
    # default two threads on a 2-core host, one busy neighbouring core made
    # a cold Controller.run 3x slower (the BLAS threads spin-wait for each
    # other); with one thread it moved by 2%.
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    spec = load_spec()
    require_sources()
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  short=args.short)
    tracer = Tracer()
    fingerprint = host_fingerprint()
    run_workload(ctx, args.workload, tracer)
    ctx.report["peak_rss_mb"] = (peak_rss_mb(), "MB")

    declared = spec["per_layer" if ctx.trace else "end_to_end"]
    if ctx.trace:
        values = dict(ctx.layers)
        values["trace.spans"] = float(len(tracer.spans))
        tracer.write(WORK / f"trace-{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "host": fingerprint})
    else:
        values = {name: value for name, (value, _) in ctx.report.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure "
                         f"{missing}")

    print(f"host {json.dumps(fingerprint, sort_keys=True)}")
    for name, (value, unit) in ctx.report.items():
        print(f"report {args.workload} {name} = {value:.6g} {unit}")
    for name, ok in ctx.checks.results.items():
        detail = "" if ok else f" ({ctx.checks.details.get(name)})"
        print(f"check {name}: {'ok' if ok else 'FAILED'}{detail}")
    result = {
        "correct": ctx.checks.passed,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if ctx.checks.passed else 1


if __name__ == "__main__":
    sys.exit(main())
