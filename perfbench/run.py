#!/usr/bin/env python3
"""kdqlab benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 15 --trace 0

Workloads (each a closed loop with one client, one request in flight):
  cli-cold      one fresh ``python -m kdqlab`` process per request
  engine-batch  in-process engine identities and scenario builds, warm
  pointer       in-process pointer sampling, closed-form and quadrature means

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
request untraced and traced, and reports the per-layer metrics. Human
lines (environment, every metric with its unit, failure reasons) come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every child, so load stays within nproc
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from collections import Counter

from common import OUT, SETUP_EVERY, SRC, WORK, best_of_rounds, flatten, run_rounds, time_imports

WORKLOADS = ("cli-cold", "engine-batch", "pointer")
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "configs_per_s": "1/s",
    "scenario_builds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed by name but not in the JSON: engine-batch has no shots, and the
# failure share is already the JSON's failed/attempted
REPORTED_UNITS = {"shots_per_s": "1/s", "ops_failed_share": "share", "ops_total": "count"}


def _load_program():
    """Import kdqlab from this checkout's ``src``; refuse to run without it."""
    if not (SRC / "kdqlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'kdqlab'}; run from the root of a kdqlab checkout")
    sys.path.insert(0, str(SRC))
    import kdqlab
    import kdqlab.cli

    if not os.path.realpath(kdqlab.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"error: kdqlab was imported from {kdqlab.__file__}, not from {SRC}")
    return kdqlab


def _workload(name: str):
    if name == "cli-cold":
        import cli_cold as module
    elif name == "engine-batch":
        import engine_batch as module
    else:
        import pointer as module
    return module.Workload


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _direct(fn, *args):
    return fn(*args)


def _untraced(kd, args, scratch) -> tuple[list, dict, dict]:
    setup, _ = time_imports(scratch, importtime=False, warm=True)
    last = time.perf_counter()

    def between():
        nonlocal last
        if time.perf_counter() - last >= SETUP_EVERY:
            setup.extend(time_imports(scratch, importtime=False, warm=False, times=1)[0])
            last = time.perf_counter()

    workload = _workload(args.workload)(kd, args.seed, scratch, in_process=False)
    workload.warmup()
    rounds = run_rounds(
        workload, lambda request: workload.run(request, _direct), args.seconds, workload.min_rounds, args.seed, args.requests, between
    )
    setup += time_imports(scratch, importtime=False, warm=False)[0]
    outcomes = flatten(rounds)
    metrics, extra = workload.end_to_end(best_of_rounds(rounds), outcomes)
    metrics["setup_s"] = statistics.median(setup)
    return outcomes, metrics, extra


def _traced(kd, args, scratch) -> tuple[list, dict, dict]:
    from tracer import Tracer

    _, cumulative = time_imports(scratch, importtime=True, warm=True)
    metrics = {
        f"import.{label}_s": statistics.median(c.get(module, 0.0) for c in cumulative)
        for label, module in (("kdqlab", "kdqlab"), ("numpy", "numpy"), ("weaksim", "kdqlab.weaksim"))
    }
    workload = _workload(args.workload)(kd, args.seed, scratch, in_process=True)
    workload.warmup()
    tracer = Tracer()
    plain = []

    def traced(index, request):
        tracer.install(kd)
        try:
            return workload.run(request, lambda fn, *a: tracer.call(index, fn, *a))
        finally:
            tracer.uninstall()

    def pair(request):
        """Each request runs untraced and traced back to back, in alternating order,
        so that the tracing overhead is not confounded with drift of the host."""
        index = len(plain)
        if index % 2:
            outcome = traced(index, request)
            plain.append(workload.run(request, _direct))
            return outcome
        plain.append(workload.run(request, _direct))
        return traced(index, request)

    outcomes = flatten(run_rounds(workload, pair, args.seconds, 1, args.seed, args.requests))
    metrics.update(tracer.layer_metrics(len(outcomes)))
    metrics["weaksim.freq_max_abs_z"] = max(o.zf for o in outcomes)
    metrics["weaksim.mean_max_abs_z"] = max(o.zm for o in outcomes)
    metrics["weaksim.quad_vs_closed_max_err"] = max(o.quad_err for o in outcomes)
    metrics["trace.overhead_share"] = sum(o.seconds for o in outcomes) / sum(o.seconds for o in plain) - 1.0
    metrics["ops_failed_share"] = sum(not o.ok for o in outcomes) / len(outcomes)
    tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    return outcomes, metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None, help="run exactly this many requests (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.requests is not None and args.requests < 1:
        parser.error("--requests must be at least 1")

    kd = _load_program()
    from tracer import PER_LAYER

    scratch = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        outcomes, metrics, extra = (_traced if args.trace else _untraced)(kd, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    unexpected = [o for o in outcomes if not o.ok and not o.known_defect]
    extra["ops_total"] = len(outcomes)
    if "ops_failed_share" not in metrics:
        extra["ops_failed_share"] = failed / len(outcomes)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS

    print("env " + json.dumps(_environment(args)))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    for name, value in extra.items():
        print(f"metric {name} {value:.6g} {REPORTED_UNITS[name]}")
    for reason, n in Counter(o.reason for o in outcomes if not o.ok).most_common():
        tag = "known defect" if any(o.reason == reason and o.known_defect for o in outcomes) else "FAILED"
        print(f"failure [{tag}] x{n}: {reason}")
    result = {
        # correct: every request passed its gate, apart from the known defects,
        # which still count in failed
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
