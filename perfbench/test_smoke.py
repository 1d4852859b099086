"""Smoke test of the benchmark: every workload at minimal size emits every named metric.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / "perfbench" / "work" / "test"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--requests", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 3 and 0 <= result["failed"] <= 3
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
        assert any(line.startswith(f"metric {metric['name']} ") for line in lines), metric["name"]
    assert lines[0].startswith("env ") and {"nproc", "python", "numpy", "scipy"} <= set(json.loads(lines[0][4:]))


def test_refuses_to_run_without_the_program() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    try:
        done = _run(bare, "--workload", "engine-batch", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_same_seed_gives_identical_inputs() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cli_cold
    import engine_batch

    written = []
    for copy in ("a", "b"):
        folder = SCRATCH / f"seed-{copy}"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        requests = [r for index in range(4) for r in cli_cold._round(11, index, folder)]
        written.append(
            ([r.argv[:1] + r.argv[2:] for r in requests], {p.name: p.read_bytes() for p in sorted(folder.iterdir())})
        )
        shutil.rmtree(folder)
    assert written[0] == written[1]
    first, second = (engine_batch.Workload(None, 11, SCRATCH).round(2) for _ in range(2))
    assert [r.kind for r in first] == [r.kind for r in second]
    for one, two in zip(first, second):
        if one.kind == "config":
            assert all(one.config[key].tobytes() == two.config[key].tobytes() for key in ("state_a", "basis_m", "basis_b"))
        else:
            assert (one.name, one.theta) == (two.name, two.theta)
