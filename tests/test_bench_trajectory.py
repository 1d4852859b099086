"""scripts/bench_trajectory.py: its verdicts and its paired-block arithmetic, on synthetic records.

The script is loaded from scripts/ by its path. Nothing here starts a process or runs the harness, so these tests
need numpy only.
"""

import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"
ARGS = argparse.Namespace(seconds=0.0, requests=3)
BOUNDS = {"latency_p50_s": (0.25, "lower")}
ROW = "kdq.kd_joint_us.d2"
PARENT = [1.0 + 0.01 * k for k in range(10)]  # quartiles 1.0225 and 1.0675: a relative spread of 4.4%


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(bench, latencies, row_times, ratios):
    """A summary whose seeds each give one engine-batch run and one ``layers`` entry of the row ``ROW``."""
    runs = [
        {"workload": "engine-batch", "seed": seed, "env": {}, "correct": True, "attempted": 1, "failed": 0,
         "metrics": {"latency_p50_s": value}}
        for seed, value in enumerate(latencies, 1)
    ]
    return bench._summary(runs, [{ROW: time} for time in row_times], ratios, ARGS)


def compared(bench, capsys, parent, change, parent_rows=None, change_rows=None):
    """The printed end-to-end line and ``layers`` line of ``_compare`` on the two summaries."""
    ratios = {ROW: [1.0] * bench.ROUNDS * len(parent)}
    before = summary(bench, parent, parent if parent_rows is None else parent_rows, ratios)
    after = summary(bench, change, change if change_rows is None else change_rows, ratios)
    bench._compare(before, after, BOUNDS)
    lines = capsys.readouterr().out.splitlines()
    metric = next(line for line in lines if line.startswith("engine-batch latency_p50_s:"))
    return metric, next(line for line in lines if line.startswith(f"{ROW}:"))


def test_one_pair_gets_no_verdict(bench, capsys):
    # the change wins its one pair by half, and the two layers medians are equal: either rule would fire on
    # quartile distances of 0
    metric, row = compared(bench, capsys, [1.0], [0.5], [1.0], [1.0])
    assert metric.endswith("1/1  too few pairs")
    assert "0/1  too few pairs;" in row
    assert "resolved" not in metric + row


def test_nine_pairs_in_ten_and_a_gap_beyond_the_spread_resolve_a_gain(bench, capsys):
    metric, row = compared(bench, capsys, PARENT, [0.5] * 9 + [2.0], PARENT, [0.5] * 10)
    assert metric.endswith("9/10  gain resolved")
    assert row.endswith("10/10; paired 1.000 [1.000, 1.000]")


def test_eight_pairs_in_ten_resolve_no_gain(bench, capsys):
    metric, _ = compared(bench, capsys, PARENT, [0.5] * 8 + [2.0] * 2)
    assert metric.endswith("8/10")


def test_a_parent_spread_beyond_the_bound_is_unresolved(bench, capsys):
    wide = [float(k) for k in range(1, 11)]  # quartiles 3.25 and 7.75 about a median of 5.5: 82% > 25%
    metric, row = compared(bench, capsys, wide, wide)
    assert metric.endswith("0/10  unresolved")
    assert "0/10  unresolved;" in row


def test_each_change_block_is_paired_with_the_parent_blocks_around_it(bench):
    blocks = {"parent": {ROW: [1.0, 3.0, 2.0, 2.0]}, "change": {ROW: [1.0, 4.0]}}
    ratios = {ROW: [0.25]}  # an earlier seed's round: each seed's rounds are pooled
    medians = bench._split(blocks, ratios)
    assert ratios == {ROW: [0.25, 2.0 * 1.0 / (1.0 + 3.0), 2.0 * 4.0 / (2.0 + 2.0)]}
    assert medians == {"parent": {ROW: 2.0}, "change": {ROW: 2.5}}


def test_paired_rounds_pool_every_seed(bench):
    layers = summary(bench, PARENT, PARENT, {ROW: [1.0] * bench.ROUNDS * 10})["layers"]
    assert layers["paired"]["rounds"] == layers["paired"]["rows"][ROW]["n"] == 40


def test_single_tree_mode_writes_no_paired_key(bench):
    ratios = {}
    medians = bench._split({"change": {ROW: [4.0, 1.0, 3.0, 2.0]}}, ratios)
    assert ratios == {} and medians == {"change": {ROW: 2.5}}
    layers = summary(bench, [1.0], [medians["change"][ROW]], ratios)["layers"]
    assert "paired" not in layers
    assert layers["rows"][ROW]["median"] == 2.5
