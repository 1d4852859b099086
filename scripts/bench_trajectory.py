#!/usr/bin/env python3
"""Benchmark trajectory: the committed harness over several seeds, summarized into one JSON file.

For every workload of ``BENCHMARK.json`` and every seed, runs the unchanged

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

from the root of a checkout, parses the last JSON line of its stdout, and
writes one file with the ``env`` line, whether every run was ``correct``, the
total ``failed``, and per workload the median and quartiles of every
end-to-end metric. Each run's own values stay in ``runs``, so pairs can be
compared later. A ``layers`` block, which no bound gates, holds times in
microseconds, apart from the sampler's rows, in nanoseconds per shot. Its
in-process rows are the best of ``REPEAT`` timings of ``NUMBER`` calls each:
each scenario builder at its default angle, Leggett-Garg and Bell at one
other angle each, and at dimensions 2, 4 and 16 ``kd_joint`` beside its bare
kernel, the three products without validation; ``StateVector`` and
``StateVector.normalize`` at dimensions 4 and 16, ``OrthonormalBasis`` at 4
and 16, ``Transformation`` with a half-periodic spectrum at 2, 4 and 16, and
``negativity`` at 4 and 16; ``PointerStatistics`` on three-box (pointer on
box 3) and on Haar inputs at dimensions 8 and 16. The sampler's rows time
``SHOTS`` shots of ``sample`` once per repeat, on three-box and at dimension
8. Random inputs come from fixed seeds, and only public names are used, so
the snippet runs on any tree that has them.
Its ``import.<module>_us`` rows are the cumulative times that
``python -X importtime -c "import kdqlab"`` reports for ``IMPORTS``. Each
seed runs one fresh process of each kind per tree, after that seed's
workloads and in its order of trees. Every process's rows stay in
``layers.runs``, in seed order, and ``layers.rows`` summarizes each row over
the processes as the end-to-end metrics are summarized: median, quartiles and
count, so a reader can tell a row's spread from a change (the least value is
still in ``runs``).

With ``--parent DIR`` (another checkout, such as the commit before a change),
both trees run every (workload, seed) pair, and which one runs first
alternates from seed to seed, so drift of the host does not favour either.
The parent's summary goes to ``--parent-out``, and a comparison is printed:
per metric, the parent's median and quartiles, this tree's median and the
pairs this tree won. A metric whose parent quartile spread, relative to its
median, exceeds its bound is marked unresolved: its runs spread too widely
to tell a change. Each ``layers`` row follows, compared the same way (lower
is better for every row, and no bound gates them). A row is marked
unresolved when the two medians differ by no more than the parent's quartile
distance ``q3 - q1``: a gain smaller than the parent's own spread cannot be
told from it.

    python3 scripts/bench_trajectory.py --out BENCH_<n>.json --seeds 1-10 \\
        --parent /path/to/parent --parent-out BENCH_<n-1>.json
    python3 scripts/bench_trajectory.py --out /tmp/bench.json --seeds 1 --seconds 0 --requests 3
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUMBER, REPEAT = 50, 20
SHOTS = 10**5  # per timed call of the sampler
IMPORTS = ("kdqlab", "numpy", "kdqlab.scenarios", "kdqlab.weaksim")
# in one fresh process on the tree's src/: best-of-repeat time of one call, in microseconds
LAYERS = """
import json, sys, timeit
import numpy as np
from kdqlab import (
    OrthonormalBasis, PointerConfig, PointerStatistics, StateVector, Transformation, kd_joint, negativity, sample,
    scenarios,
)
number, repeat, shots = map(int, sys.argv[1:])

def best(call, calls=number):
    return min(timeit.repeat(call, number=calls, repeat=repeat)) / calls * 1e6

def kernel(a, m, b):  # kd_joint's three products on the stacked vectors, without its validation
    return (b.conj() @ m.T).T * (m.conj() @ a)[:, None] * (a.conj() @ b.T)[None, :]

def unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]

layers = {f"scenarios.build_us.{name}": best(lambda: scenarios.build(name)) for name in scenarios.SCENARIO_NAMES}
for name, theta in (("leggett-garg", 1.1), ("bell", 0.6)):
    layers[f"scenarios.build_us.{name}(theta={theta})"] = best(lambda: scenarios.build(name, theta))
rng = np.random.default_rng(0)
for dim in (2, 4, 16):
    a = StateVector(unitary(rng, dim)[0])
    m, b = (OrthonormalBasis(tuple(map(str, range(dim))), tuple(map(StateVector, unitary(rng, dim)))) for _ in "mb")
    layers[f"kdq.kd_joint_us.d{dim}"] = best(lambda: kd_joint(a, m, b))
    layers[f"kdq.kernel_us.d{dim}"] = best(lambda: kernel(a.amp, m.matrix, b.matrix))
rng = np.random.default_rng(1)
inputs = {"three-box": (scenarios.build("three-box").kd, (0.0, 0.0, 1.0))}
for dim in (2, 4, 8, 16):
    rows, labels = unitary(rng, dim), tuple(map(str, range(dim)))
    vectors, scaled = tuple(map(StateVector, rows)), 3.0 * rows[0]
    basis_m, basis_b = OrthonormalBasis(labels, vectors), OrthonormalBasis(labels, vectors[::-1])
    dist = kd_joint(StateVector(unitary(rng, dim)[0]), basis_m, basis_b)
    inputs[f"d{dim}"] = (dist, tuple(rng.uniform(-1.0, 1.0, dim).tolist()))
    if dim in (4, 16):
        layers[f"qcore.state_us.d{dim}"] = best(lambda: StateVector(rows[0]))
        layers[f"qcore.normalize_us.d{dim}"] = best(lambda: StateVector.normalize(scaled))
        layers[f"qcore.basis_us.d{dim}"] = best(lambda: OrthonormalBasis(labels, vectors))
        layers[f"kdq.negativity_us.d{dim}"] = best(lambda: negativity(dist))
    if dim != 8:
        phases = tuple(rng.choice((0.0, np.pi), dim).tolist())
        layers[f"kdq.transformation_us.d{dim}"] = best(lambda: Transformation(dist, phases, 0))
for name in ("three-box", "d8", "d16"):
    dist, kappa = inputs[name]
    pointer = (dist.state_a, dist.basis_m, dist.basis_b, PointerConfig(1.0, 1.0, kappa))
    layers[f"weaksim.pointer_statistics_us.{name}"] = best(lambda: PointerStatistics(*pointer))
    if name != "d16":
        layers[f"weaksim.sample_ns_per_shot.{name}"] = best(lambda: sample(*pointer, shots, 0), 1) * 1e3 / shots
print(json.dumps(layers))
"""


def _seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,3,5"`` (or both mixed) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def _run(tree: Path, workload: str, seed: int, args: argparse.Namespace) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(args.seconds), "--trace", "0"]
    if args.requests is not None:
        argv += ["--requests", str(args.requests)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    counts = {key: result[key] for key in ("correct", "attempted", "failed")}
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "env": env, **counts, "metrics": metrics}


def _layers(tree: Path) -> dict:
    """The rows of one fresh ``LAYERS`` process and one ``-X importtime`` process on the tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", LAYERS, str(NUMBER), str(REPEAT), str(SHOTS)]
    layers = json.loads(subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True).stdout)
    argv = [sys.executable, "-X", "importtime", "-c", "import kdqlab"]
    report = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True).stderr
    for line in report.splitlines():  # "import time: <self us> | <cumulative us> | <indented module name>"
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in IMPORTS:
            layers[f"import.{fields[2].strip()}_us"] = float(fields[1])
    return layers


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: list[dict], layers: list[dict], args: argparse.Namespace) -> dict:
    workloads = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    return {
        "command": f"perfbench/run.py --seconds {args.seconds} --trace 0"
        + ("" if args.requests is None else f" --requests {args.requests}"),
        "env": runs[0]["env"],
        "correct": all(run["correct"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {
            workload: {
                name: _quartiles([run["metrics"][name] for run in group]) for name in group[0]["metrics"]
            }
            for workload, group in workloads.items()
        },
        "layers": {
            "unit": "us",
            "number": NUMBER,
            "repeat": REPEAT,
            "processes": len(layers),
            "rows": {row: _quartiles([rows[row] for rows in layers]) for row in layers[0]},
            "runs": layers,
        },
        "runs": [{k: v for k, v in run.items() if k != "env"} for run in runs],
    }


def _line(label: str, base: dict, new: dict, pairs: list[tuple[float, float]], better: str, note: str = "") -> str:
    """One compared row: the parent's median [q1, q3] -> this tree's median, and the pairs this tree won."""
    won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    return (
        f"{label}: {base['median']:.4g} [{base['q1']:.4g}, {base['q3']:.4g}] -> {new['median']:.4g},"
        f" {won}/{len(pairs)}{note}"
    )


def _compare(parent: dict, change: dict, bounds: dict) -> None:
    print("workload metric: parent median [q1, q3] -> change median, pairs won; unresolved if parent spread > bound")
    for workload, metrics in parent["end_to_end"].items():
        for name, base in metrics.items():
            bound, better = bounds[name]
            pairs = [
                (p["metrics"][name], c["metrics"][name])
                for p, c in zip(parent["runs"], change["runs"])
                if p["workload"] == workload
            ]
            spread = (base["q3"] - base["q1"]) / base["median"] if base["median"] else 0.0
            note = "  unresolved" if spread > bound else ""
            print(_line(f"{workload} {name}", base, change["end_to_end"][workload][name], pairs, better, note))
    print("layers row: parent median [q1, q3] -> change median, pairs won (lower is better); unresolved if the")
    print("medians differ by no more than the parent's q3 - q1")
    for row, base in parent["layers"]["rows"].items():
        new = change["layers"]["rows"][row]
        pairs = [(p[row], c[row]) for p, c in zip(parent["layers"]["runs"], change["layers"]["runs"])]
        note = "  unresolved" if abs(new["median"] - base["median"]) <= base["q3"] - base["q1"] else ""
        print(_line(row, base, new, pairs, "lower", note))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="summary of this tree")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="such as 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--requests", type=int, default=None, help="exactly this many requests per run")
    parser.add_argument("--parent", type=Path, default=None, help="a second checkout to run alongside")
    parser.add_argument("--parent-out", type=Path, default=None, help="summary of the parent")
    args = parser.parse_args()
    if (args.parent is None) != (args.parent_out is None):
        parser.error("--parent and --parent-out go together")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    trees = {"change": ROOT} if args.parent is None else {"change": ROOT, "parent": args.parent.resolve()}
    runs, layers = {label: [] for label in trees}, {label: [] for label in trees}
    for index, seed in enumerate(args.seeds):
        order = list(trees) if index % 2 else list(trees)[::-1]  # the parent first at the first seed
        for workload in workloads:
            for label in order:
                runs[label].append(_run(trees[label], workload, seed, args))
                print(f"seed {seed} {workload} {label}: correct={runs[label][-1]['correct']}", file=sys.stderr)
        for label in order:
            layers[label].append(_layers(trees[label]))
    summaries = {label: _summary(runs[label], layers[label], args) for label in trees}

    args.out.write_text(json.dumps(summaries["change"], indent=1) + "\n", encoding="utf-8")
    if args.parent is not None:
        args.parent_out.write_text(json.dumps(summaries["parent"], indent=1) + "\n", encoding="utf-8")
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
        _compare(summaries["parent"], summaries["change"], bounds)
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
