"""scripts/bench_trajectory.py: its verdicts and its paired-block arithmetic, on synthetic records.

The script is loaded from scripts/ by its path. Nothing here starts a process or runs the harness, so these tests
need numpy only.
"""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"
ARGS = argparse.Namespace(seconds=0.0, requests=3)
BOUNDS = {"latency_p50_s": (0.25, "lower")}
ROW = "kdq.kd_joint_us.d2"  # an in-process row, judged by its paired rounds
PROCESS_ROW = "process.kd_us"  # a row without paired rounds, judged by its per-seed medians
PARENT = [1.0 + 0.01 * k for k in range(10)]  # quartiles 1.0225 and 1.0675: a relative spread of 4.4%


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(bench, latencies, row_times, ratios):
    """A summary whose seeds each give one engine-batch run and one ``layers`` entry of ``ROW`` and ``PROCESS_ROW``."""
    runs = [
        {"workload": "engine-batch", "seed": seed, "env": {}, "correct": True, "attempted": 1, "failed": 0,
         "metrics": {"latency_p50_s": value}}
        for seed, value in enumerate(latencies, 1)
    ]
    return bench._summary(runs, [{ROW: time, PROCESS_ROW: time} for time in row_times], ratios, ARGS)


def compared(bench, capsys, parent, change, parent_rows=None, change_rows=None, rounds=None):
    """The printed end-to-end line, ``ROW`` line and ``PROCESS_ROW`` line of ``_compare`` on the two summaries.

    ``rounds`` are ``ROW``'s paired change/parent ratios, by default 1.0 in each of ``ROUNDS`` rounds per seed.
    """
    ratios = {ROW: [1.0] * bench.ROUNDS * len(parent) if rounds is None else rounds}
    before = summary(bench, parent, parent if parent_rows is None else parent_rows, ratios)
    after = summary(bench, change, change if change_rows is None else change_rows, ratios)
    bench._compare(before, after, BOUNDS)
    lines = capsys.readouterr().out.splitlines()
    starts = ("engine-batch latency_p50_s:", f"{ROW}:", f"{PROCESS_ROW}:")
    return tuple(next(line for line in lines if line.startswith(start)) for start in starts)


def test_one_pair_gets_no_verdict(bench, capsys):
    # the change wins its one pair by half, all its paired rounds read below 1, and the two medians of the
    # process row are equal: each rule would fire on quartile distances of 0
    metric, row, process = compared(bench, capsys, [1.0], [0.5], [1.0], [1.0], [0.5] * bench.ROUNDS)
    assert metric.endswith("1/1  too few pairs")
    assert "4/4  too few pairs;" in row
    assert process.endswith("0/1  too few pairs")
    assert "resolved" not in metric + row + process


def test_nine_pairs_in_ten_and_a_gap_beyond_the_spread_resolve_a_gain(bench, capsys):
    metric, row, process = compared(bench, capsys, PARENT, [0.5] * 9 + [2.0], PARENT, [0.5] * 10)
    assert metric.endswith("9/10  gain resolved")
    assert process.endswith("10/10")
    # the per-seed medians halve, but the paired rounds read level: they, not the medians, judge an in-process row
    assert row.endswith("0/40  unresolved; paired 1.000 [1.000, 1.000], 95% CI [1.000, 1.000]")


@pytest.mark.parametrize(
    "rounds, verdict",
    [
        ([0.9] * 36 + [1.1] * 4, "36/40  gain resolved"),
        ([1.1] * 36 + [0.9] * 4, "4/40  loss resolved"),
        ([0.9] * 35 + [1.1] * 5, "35/40  unresolved"),
        ([0.9] * 35 + [1.0] * 5, "35/40  unresolved"),  # a tie counts for neither side
        ([0.5] * 9, "9/9  too few pairs"),
    ],
)
def test_paired_rounds_give_an_in_process_row_its_verdict(bench, capsys, rounds, verdict):
    _, row, _ = compared(bench, capsys, PARENT, PARENT, rounds=rounds)
    assert f"{verdict};" in row


def test_paired_rounds_are_counted_below_and_above_one(bench):
    paired = summary(bench, PARENT, PARENT, {ROW: [0.9, 1.0, 1.1, 1.2]})["layers"]["paired"]["rows"]
    assert (paired[ROW]["below"], paired[ROW]["above"], paired[ROW]["n"]) == (1, 2, 4)


def test_eight_pairs_in_ten_resolve_no_gain(bench, capsys):
    metric, _, _ = compared(bench, capsys, PARENT, [0.5] * 8 + [2.0] * 2)
    assert metric.endswith("8/10")


def test_a_parent_spread_beyond_the_bound_is_unresolved(bench, capsys):
    wide = [float(k) for k in range(1, 11)]  # quartiles 3.25 and 7.75 about a median of 5.5: 82% > 25%
    metric, _, process = compared(bench, capsys, wide, wide)
    assert metric.endswith("0/10  unresolved")
    assert process.endswith("0/10  unresolved")


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


def test_each_paired_row_carries_a_seeded_bootstrap_interval_of_its_median(bench, capsys):
    rounds = np.random.default_rng(7).normal(0.95, 0.05, 400).tolist()
    row = summary(bench, PARENT, PARENT, {ROW: rounds})["layers"]["paired"]["rows"][ROW]
    low, high = row["ci95"]
    assert low < row["median"] < high
    # the median of n normal draws has standard error 1.2533 s / sqrt(n): the interval is about 0.012 wide here
    assert 0.006 < high - low < 0.02
    assert bench._interval(rounds) == [low, high]  # seeded: the same rounds give the same interval
    assert bench._interval(rounds[:40])[1] - bench._interval(rounds[:40])[0] > high - low  # fewer rounds, wider
    assert bench._interval([0.98] * 40) == [0.98, 0.98]
    # printed beside the verdict, which still comes from the 9/10 sign rule alone: every round below 1 but the
    # interval spans 1, and the verdict is still gain resolved
    _, line, _ = compared(bench, capsys, PARENT, PARENT, rounds=[0.999] * 36 + [1.5] * 4)
    assert "36/40  gain resolved; paired 0.999 [0.999, 0.999], 95% CI [0.999, 0.999]" in line
    _, line, _ = compared(bench, capsys, PARENT, PARENT, rounds=[0.9] * 20 + [1.1] * 20)
    assert "20/40  unresolved; paired 1.000 [0.900, 1.100], 95% CI [0.900, 1.100]" in line


# -X importtime lines for one import of kdqlab: (self us, cumulative us, name); scenario_file first imported under
# kdqlab itself (before) or under kdqlab.scenarios (after), as when scenarios starts to import it
IMPORTTIME = {
    "before": [
        (2000, 90000, "numpy"),
        (900, 900, "kdqlab.qcore"),
        (700, 700, "kdqlab.scenario_file"),
        (1500, 2400, "kdqlab.scenarios"),
        (1200, 1200, "kdqlab.weaksim"),
        (300, 95500, "kdqlab"),
    ],
    "after": [
        (2000, 90000, "numpy"),
        (900, 900, "kdqlab.qcore"),
        (700, 700, "  kdqlab.scenario_file"),
        (1500, 3100, "kdqlab.scenarios"),
        (1200, 1200, "kdqlab.weaksim"),
        (300, 95500, "kdqlab"),
    ],
}


def importtime(lines):
    header = "import time: self [us] | cumulative | imported package"
    return "\n".join([header, *(f"import time: {a:>9} | {b:>10} | {name}" for a, b, name in lines)])


def test_a_submodule_import_row_is_its_self_time_and_the_package_row_its_total(bench):
    before, after = (bench._import_rows(importtime(IMPORTTIME[key])) for key in ("before", "after"))
    assert before == {
        "import.numpy_us": 90000.0,
        "import.kdqlab.scenarios_us": 1500.0,
        "import.kdqlab.weaksim_us": 1200.0,
        "import.kdqlab_us": 95500.0,
    }
    # moving scenario_file under scenarios moves scenarios' cumulative time, 2400 -> 3100 us, but no row
    assert after == before
