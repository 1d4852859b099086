#!/usr/bin/env python3
"""Benchmark trajectory: the committed harness over several seeds, summarized into one JSON file.

For every workload of ``BENCHMARK.json`` and every seed, runs the unchanged

    python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0

from the root of a checkout, parses the last JSON line of its stdout, and
writes one file with the ``env`` line, whether every run was ``correct``, the
total ``failed``, and per workload the median and quartiles of every
end-to-end metric. Each run's own values stay in ``runs``, so pairs can be
compared later. A ``layers`` block, which no bound gates, holds times in
microseconds, apart from the sampler's rows, in nanoseconds per shot.

Its in-process rows, ``ROWS``: each scenario builder at its default angle,
Leggett-Garg and Bell at one other angle each, and at dimensions 2, 4 and 16
``kd_joint`` beside its bare kernel, the three products without validation;
``StateVector`` and ``StateVector.normalize`` at dimensions 4 and 16,
``OrthonormalBasis`` at 4 and 16, ``Transformation`` with a half-periodic
spectrum at 2, 4 and 16, and ``negativity`` at 4 and 16; ``PointerStatistics``
on three-box (pointer on box 3) and on Haar inputs at dimensions 8 and 16.
The sampler's rows time one call of ``sample`` at ``SHOTS`` shots per block,
on three-box and at dimension 8; every other block is ``NUMBER`` calls.
Random inputs come from fixed seeds, and only public names are used, so the
snippet runs on any tree that has them. Before the first seed, each tree's
``src/kdqlab`` is copied into a temporary directory as ``kdqlab_change`` (and
``kdqlab_parent``, below); relative imports keep each copy whole. After each
seed's workloads, one fresh ``PAIRED`` process imports every copy and times
each row in ``ROUNDS`` rounds, back to back, so no block starts on caches
that another row left. A round is one block of this tree, or with a parent
the blocks parent, change, parent. A tree's row in that seed's entry is the
median time per call of its blocks.
Its ``import.<module>_us`` rows are the cumulative times that
``python -X importtime -c "import kdqlab"`` reports for ``IMPORTS``. Its
``process.<command>_us`` rows are the best of ``PROCESS_REPEAT`` wall times
of one whole fresh process, the unit that the cli-cold workload measures:
``python -m kdqlab scenario three-box``, ``python -m kdqlab kd`` on a seeded
dimension-4 file (a Haar preparation and two Haar bases) and
``python -c "import kdqlab"``. These rows need fresh processes, so each seed
runs them once per tree, in its order of trees. Every seed's rows stay in
``layers.runs``, in seed order, and ``layers.rows`` summarizes each row over
the seeds as the end-to-end metrics are summarized: median, quartiles and
count, so a reader can tell a row's spread from a change.

With ``--parent DIR`` (another checkout, such as the commit before a change),
both trees run every (workload, seed) pair, and which one runs first
alternates from seed to seed, so drift of the host does not favour either.
Each round of the shared process also gives one ratio of each in-process
row, the change's block over the mean of the two parent blocks around it, so
drift of the host within a round cancels; the median and quartiles of every
seed's ratios go into both summaries as ``layers.paired``. The parent's
summary goes to ``--parent-out``, and a comparison is printed: per metric,
the parent's median and quartiles, this tree's median, the pairs this tree
won and a verdict. With fewer than ``MIN_PAIRS`` pairs the verdict is ``too
few pairs``, since no spread can be read from so few runs. Otherwise a
metric whose parent quartile spread, relative to its median, exceeds its
bound is marked unresolved: its runs spread too widely to tell a change. A
metric is marked ``gain resolved`` when this tree won at least nine tenths of
the pairs (ties count for neither) and its median is better than the
parent's by more than the parent's quartile distance ``q3 - q1``: the rule a
claimed gain must meet. Each ``layers`` row follows, compared the same way
(lower is better for every row, and no bound gates them), with the same
``too few pairs`` rule. A row is marked unresolved when the two medians
differ by no more than the parent's quartile distance ``q3 - q1``: a gain
smaller than the parent's own spread cannot be told from it. Beside each
in-process row its paired ratio is printed.

    python3 scripts/bench_trajectory.py --out BENCH_<n>.json --seeds 1-10 \\
        --parent /path/to/parent --parent-out BENCH_<n-1>.json
    python3 scripts/bench_trajectory.py --out /tmp/bench.json --seeds 1 --seconds 0 --requests 3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NUMBER = 50  # calls per block of an in-process row
SHOTS = 10**5  # per call of the sampler, which makes one call per block
ROUNDS = 4  # rounds of blocks of each in-process row per seed
IMPORTS = ("kdqlab", "numpy", "kdqlab.scenarios", "kdqlab.weaksim")
PROCESS_REPEAT = 5  # fresh processes per process row; the least wall time is kept
MIN_PAIRS = 10  # fewer pairs than this get no verdict
# the in-process rows, on any package with kdqlab's public names: name -> (call, calls per block, factor from
# microseconds per call to the row's unit); partial binds each row's inputs, so every call is built before timing
ROWS = """
import json, sys, timeit
from functools import partial
import numpy as np

def kernel(a, m, b):  # kd_joint's three products on the stacked vectors, without its validation
    return (b.conj() @ m.T).T * (m.conj() @ a)[:, None] * (a.conj() @ b.T)[None, :]

def unitary(rng, dim):
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]

def rows(kdqlab, number, shots):
    timed = {}

    def add(name, call, *args, calls=number, factor=1.0):  # factor: from microseconds per call to the row's unit
        timed[name] = (partial(call, *args), calls, factor)

    OrthonormalBasis, StateVector, scenarios = kdqlab.OrthonormalBasis, kdqlab.StateVector, kdqlab.scenarios
    for name in scenarios.SCENARIO_NAMES:
        add(f"scenarios.build_us.{name}", scenarios.build, name)
    for name, theta in (("leggett-garg", 1.1), ("bell", 0.6)):
        add(f"scenarios.build_us.{name}(theta={theta})", scenarios.build, name, theta)
    rng = np.random.default_rng(0)
    for dim in (2, 4, 16):
        a = StateVector(unitary(rng, dim)[0])
        m, b = (OrthonormalBasis(tuple(map(str, range(dim))), tuple(map(StateVector, unitary(rng, dim)))) for _ in "mb")
        add(f"kdq.kd_joint_us.d{dim}", kdqlab.kd_joint, a, m, b)
        add(f"kdq.kernel_us.d{dim}", kernel, a.amp, m.matrix, b.matrix)
    rng = np.random.default_rng(1)
    inputs = {"three-box": (scenarios.build("three-box").kd, (0.0, 0.0, 1.0))}
    for dim in (2, 4, 8, 16):
        matrix, labels = unitary(rng, dim), tuple(map(str, range(dim)))
        vectors = tuple(map(StateVector, matrix))
        basis_m, basis_b = OrthonormalBasis(labels, vectors), OrthonormalBasis(labels, vectors[::-1])
        dist = kdqlab.kd_joint(StateVector(unitary(rng, dim)[0]), basis_m, basis_b)
        inputs[f"d{dim}"] = (dist, tuple(rng.uniform(-1.0, 1.0, dim).tolist()))
        if dim in (4, 16):
            add(f"qcore.state_us.d{dim}", StateVector, matrix[0])
            add(f"qcore.normalize_us.d{dim}", StateVector.normalize, 3.0 * matrix[0])
            add(f"qcore.basis_us.d{dim}", OrthonormalBasis, labels, vectors)
            add(f"kdq.negativity_us.d{dim}", kdqlab.negativity, dist)
        if dim != 8:
            phases = tuple(rng.choice((0.0, np.pi), dim).tolist())
            add(f"kdq.transformation_us.d{dim}", kdqlab.Transformation, dist, phases, 0)
    for name in ("three-box", "d8", "d16"):
        dist, kappa = inputs[name]
        pointer = (dist.state_a, dist.basis_m, dist.basis_b, kdqlab.PointerConfig(1.0, 1.0, kappa))
        add(f"weaksim.pointer_statistics_us.{name}", kdqlab.PointerStatistics, *pointer)
        if name != "d16":
            add(f"weaksim.sample_ns_per_shot.{name}", kdqlab.sample, *pointer, shots, 0, calls=1, factor=1e3 / shots)
    return timed
"""
# in one fresh process with every given tree's package, kdqlab_change and with a parent kdqlab_parent: per tree
# and row, the time per call of each block in the row's unit; a row's rounds run back to back, each round a block
# of the change alone or, with a parent, the blocks parent, change, parent
PAIRED = ROWS + """
import importlib
number, shots, rounds = map(int, sys.argv[1:4])
trees = {label: rows(importlib.import_module(f"kdqlab_{label}"), number, shots) for label in sys.argv[4:]}
for timed in trees.values():  # one untimed call each, so no block meets a cold cache
    for call, _, _ in timed.values():
        call()
order = ("parent", "change", "parent") if "parent" in trees else ("change",)
blocks = {label: {name: [] for name in trees[label]} for label in trees}
for name, (_, calls, factor) in trees["change"].items():
    for _ in range(rounds):
        for label in order:
            blocks[label][name].append(timeit.timeit(trees[label][name][0], number=calls) / calls * 1e6 * factor)
print(json.dumps(blocks))
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


def _kd_file(path: Path) -> Path:
    """The seeded dimension-4 scenario file of the ``process.kd_us`` row."""
    rng = np.random.default_rng(4)
    rows = [np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] for _ in "amb"]
    pairs = lambda vector: [[z.real, z.imag] for z in vector.tolist()]
    payload = {"dim": 4, "state_a": pairs(rows[0][0])}
    payload.update(basis_m=list(map(pairs, rows[1])), basis_b=list(map(pairs, rows[2])))
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _wall_us(argv: list[str], tree: Path, env: dict) -> float:
    """The least wall time of ``PROCESS_REPEAT`` fresh processes, in microseconds."""
    run = lambda: subprocess.run(argv, cwd=tree, env=env, capture_output=True, check=True)
    return min(timeit.repeat(run, number=1, repeat=PROCESS_REPEAT)) * 1e6


def _layers(tree: Path, kd_file: Path) -> dict:
    """The rows that need fresh processes on the tree's src/: one ``-X importtime`` process and the process rows."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-X", "importtime", "-c", "import kdqlab"]
    report = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True).stderr
    # each line: "import time: <self us> | <cumulative us> | <indented module name>"
    fields = [[field.strip() for field in line.split("|")] for line in report.splitlines()]
    layers = {f"import.{f[2]}_us": float(f[1]) for f in fields if len(f) == 3 and f[2] in IMPORTS}
    kdqlab = [sys.executable, "-m", "kdqlab"]
    layers["process.scenario_us"] = _wall_us([*kdqlab, "scenario", "three-box"], tree, env)
    layers["process.kd_us"] = _wall_us([*kdqlab, "kd", str(kd_file)], tree, env)
    layers["process.import_us"] = _wall_us([sys.executable, "-c", "import kdqlab"], tree, env)
    return layers


def _blocks(trees: dict, packages: Path) -> dict:
    """Each tree's blocks of every ``ROWS`` row from one fresh ``PAIRED`` process on the copies in ``packages``."""
    env = dict(os.environ, PYTHONPATH=str(packages))
    argv = [sys.executable, "-c", PAIRED, str(NUMBER), str(SHOTS), str(ROUNDS), *trees]
    return json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)


def _split(blocks: dict, ratios: dict) -> dict:
    """Each tree's median block per row; with a parent, appends each round's ratio to ``ratios[row]``.

    A round's ratio is the change's block over the mean of the parent's blocks before and after it.
    """
    if "parent" in blocks:
        for row, times in blocks["change"].items():
            around = zip(blocks["parent"][row][::2], blocks["parent"][row][1::2])
            ratios.setdefault(row, []).extend(2.0 * new / (first + last) for new, (first, last) in zip(times, around))
    return {label: {row: statistics.median(times) for row, times in rows.items()} for label, rows in blocks.items()}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: list[dict], layers: list[dict], ratios: dict, args: argparse.Namespace) -> dict:
    """One tree's summary; ``ratios`` (each in-process row's change/parent ratios) is empty without a parent."""
    workloads = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    summary = {
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
            "rounds_per_seed": ROUNDS,
            "rows": {row: _quartiles([rows[row] for rows in layers]) for row in layers[0]},
            "runs": layers,
        },
        "runs": [{k: v for k, v in run.items() if k != "env"} for run in runs],
    }
    if ratios:
        rows = {row: _quartiles(values) for row, values in ratios.items()}
        summary["layers"]["paired"] = {"ratio": "change / parent", "rounds": ROUNDS * len(layers), "rows": rows}
    return summary


def _won(pairs: list[tuple[float, float]], better: str) -> int:
    """The pairs (parent, change) that this tree won; a tie counts for neither."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in pairs)


def _line(label: str, base: dict, new: dict, won: int, runs: int, verdict: str, note: str = "") -> str:
    """One compared row: the parent's median [q1, q3] -> this tree's median, the pairs this tree won, the verdict.

    Below ``MIN_PAIRS`` pairs the verdict is ``too few pairs``: neither rule can tell a change from the spread there.
    """
    quartiles = f"{base['median']:.4g} [{base['q1']:.4g}, {base['q3']:.4g}]"
    verdict = "  too few pairs" if runs < MIN_PAIRS else verdict
    return f"{label}: {quartiles} -> {new['median']:.4g}, {won}/{runs}{verdict}{note}"


def _compare(parent: dict, change: dict, bounds: dict) -> None:
    print(
        f"workload metric: parent median [q1, q3] -> change median, pairs won; too few pairs below {MIN_PAIRS};\n"
        "else unresolved if parent spread > bound, and gain resolved if the change won 9/10 of the pairs and its\n"
        "median is better by more than parent q3 - q1"
    )
    for workload, metrics in parent["end_to_end"].items():
        for name, base in metrics.items():
            bound, better = bounds[name]
            new = change["end_to_end"][workload][name]
            pairs = [
                (p["metrics"][name], c["metrics"][name])
                for p, c in zip(parent["runs"], change["runs"])
                if p["workload"] == workload
            ]
            won = _won(pairs, better)
            spread = (base["q3"] - base["q1"]) / base["median"] if base["median"] else 0.0
            gain = (base["median"] - new["median"]) * (1 if better == "lower" else -1)
            verdict = "  unresolved" if spread > bound else ""
            verdict += "  gain resolved" if 10 * won >= 9 * len(pairs) and gain > base["q3"] - base["q1"] else ""
            print(_line(f"{workload} {name}", base, new, won, len(pairs), verdict))
    print(
        "layers row: parent median [q1, q3] -> change median, pairs won (lower is better); too few pairs below\n"
        f"{MIN_PAIRS}, else unresolved if the medians differ by no more than the parent's q3 - q1; then, for\n"
        "in-process rows, the paired change/parent ratio's median [q1, q3] over every seed's rounds"
    )
    paired = change["layers"]["paired"]["rows"]
    for row, base in parent["layers"]["rows"].items():
        new = change["layers"]["rows"][row]
        pairs = [(p[row], c[row]) for p, c in zip(parent["layers"]["runs"], change["layers"]["runs"])]
        verdict = "  unresolved" if abs(new["median"] - base["median"]) <= base["q3"] - base["q1"] else ""
        note = "; paired {median:.3f} [{q1:.3f}, {q3:.3f}]".format(**paired[row]) if row in paired else ""
        print(_line(row, base, new, _won(pairs, "lower"), len(pairs), verdict, note))


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
    runs, layers, ratios = {label: [] for label in trees}, {label: [] for label in trees}, {}
    with tempfile.TemporaryDirectory() as scratch:
        kd_file = _kd_file(Path(scratch) / "kd-d4.json")
        packages, ignore = Path(scratch) / "packages", shutil.ignore_patterns("__pycache__")
        for label, tree in trees.items():  # as kdqlab_<label>: its relative imports keep each copy whole
            shutil.copytree(tree / "src" / "kdqlab", packages / f"kdqlab_{label}", ignore=ignore)
        for index, seed in enumerate(args.seeds):
            order = list(trees) if index % 2 else list(trees)[::-1]  # the parent first at the first seed
            for workload in workloads:
                for label in order:
                    runs[label].append(_run(trees[label], workload, seed, args))
                    print(f"seed {seed} {workload} {label}: correct={runs[label][-1]['correct']}", file=sys.stderr)
            medians = _split(_blocks(trees, packages), ratios)
            for label in order:
                layers[label].append({**medians[label], **_layers(trees[label], kd_file)})
    summaries = {label: _summary(runs[label], layers[label], ratios, args) for label in trees}
    args.out.write_text(json.dumps(summaries["change"], indent=1) + "\n", encoding="utf-8")
    if args.parent is not None:
        args.parent_out.write_text(json.dumps(summaries["parent"], indent=1) + "\n", encoding="utf-8")
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
        _compare(summaries["parent"], summaries["change"], bounds)
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
