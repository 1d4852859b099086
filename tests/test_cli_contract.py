"""Fuzzed contract of ``kdqlab``: whatever argv argparse accepts, the run ends in exit 0, 2 or 3.

No exception escapes ``main``. Exit 2 comes with exactly one ``error:`` line on
stderr, and every other non-empty stderr line is a ``warning:`` line.
"""

import copy
import io
import json
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdqlab import SCENARIO_NAMES, three_box
from kdqlab.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, MAX_SHOTS, main


def _three_box_payload() -> dict:
    kd = three_box().kd
    pairs = lambda v: [[z.real, z.imag] for z in v.amp.tolist()]
    return {
        "dim": 3,
        "state_a": pairs(kd.state_a),
        "basis_m": [pairs(v) for v in kd.basis_m.vectors],
        "basis_b": [pairs(v) for v in kd.basis_b.vectors],
        "labels_m": list(kd.basis_m.labels),
        "labels_b": list(kd.basis_b.labels),
        "kappa": [0.0, 0.0, 1.0],
        "action_phase": [0.0, 0.0, math.pi],
    }


THREE_BOX = _three_box_payload()
FUZZ = settings(max_examples=80, deadline=None, derandomize=True)

def _mostly(valid, odd):
    """Draw from ``valid`` three times in four, so that runs get past the input checks."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else valid)


# values that a JSON file may hold where a number, a pair or a list belongs
ODD_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, "1", None, True, [], {}, [1.0, 0.0]]),
)
NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=0.0, exclude_min=True).map(repr),
    st.sampled_from(["1", "2", "50", "1e12", "1e-300", "1e300", "1e-160", "1e152", "5e-324"]),
    st.integers(-(10**30), 10**30).map(str),
)
POINTER_TEXT = _mostly(st.floats(1e-3, 1e3).map(repr), NUMBER_TEXT)
KAPPA_TEXT = st.one_of(
    st.none(),
    st.lists(st.floats(), min_size=3, max_size=3).map(lambda xs: ",".join(map(repr, xs))),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    st.text(max_size=12),
)
SHOTS = _mostly(st.integers(1, 10**4), st.integers(max_value=0) | st.integers(min_value=MAX_SHOTS + 1))
SEEDS = _mostly(st.integers(0, 2**64 - 1), st.integers(-(2**70), 2**70))


def _paths(value, prefix=()):
    """Every position in a JSON value, the value itself included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*prefix, key))


def _replace(payload, path, value):
    if not path:
        return value
    owner = payload
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return payload


def _scale(value, factor):
    if isinstance(value, list):
        return [_scale(item, factor) for item in value]
    return value * factor if isinstance(value, float) else value


@st.composite
def scenario_files(draw):
    """The three-box file with up to three mutations: odd values, renormalised state_a, duplicate labels, keys."""
    payload = copy.deepcopy(THREE_BOX)
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(payload, dict):  # a replaced top level
            break
        kind = draw(st.sampled_from(["replace", "renormalize", "duplicate", "drop", "unknown", "kappa"]))
        if kind == "replace":
            payload = _replace(payload, draw(st.sampled_from(list(_paths(payload)))), draw(ODD_VALUES))
        elif kind == "renormalize" and isinstance(payload.get("state_a"), list):
            factor = draw(st.one_of(st.sampled_from([2.0, 0.5, 1e-200, 1e200, 1.0 + 1e-7]), st.floats(1e-320, 1e300)))
            payload["state_a"] = _scale(payload["state_a"], factor)
        elif kind == "duplicate":
            key = draw(st.sampled_from(["labels_m", "labels_b"]))
            payload[key] = ["x", "x", "y"]
        elif kind == "drop" and payload:
            del payload[draw(st.sampled_from(sorted(payload)))]
        elif kind == "unknown":
            payload["basis_c"] = THREE_BOX["basis_b"]
        elif kind == "kappa":
            payload["kappa"] = draw(st.lists(st.floats(), min_size=3, max_size=3))
    return payload


def _print_like_python(message, category, filename, lineno, file=None, line=None):
    """Print a warning as a fresh interpreter would, where pytest would only record it."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run_contract(argv, payload=None):
    """Run ``main`` in process, with ``payload`` written to the file named ``{file}`` in argv."""
    with tempfile.TemporaryDirectory() as tmp:
        if payload is not None:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            argv = [str(path) if arg == "{file}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.showwarning = _print_like_python
            code = main(argv)
    lines = [line for line in err.getvalue().splitlines() if line.strip()]
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED), (code, err.getvalue())
    errors = [line for line in lines if line.startswith("error:")]
    assert len(errors) == (1 if code == EXIT_USAGE else 0), err.getvalue()
    assert all(line.startswith(("error:", "warning:")) for line in lines), err.getvalue()


@FUZZ
@given(
    name=st.sampled_from(SCENARIO_NAMES),
    theta=st.one_of(st.none(), NUMBER_TEXT, st.floats(0.0, math.pi).map(repr)),
    deg=st.booleans(),
    fmt=st.sampled_from(["table", "json", "csv"]),
)
def test_scenario_argv(name, theta, deg, fmt):
    argv = ["scenario", name, f"--format={fmt}"]
    argv += [] if theta is None else [f"--theta={theta}"]
    run_contract(argv + (["--deg"] if deg else []))


@FUZZ
@given(payload=scenario_files(), fmt=st.sampled_from(["table", "json", "csv"]))
def test_kd_files(payload, fmt):
    run_contract(["kd", "{file}", f"--format={fmt}"], payload)


@FUZZ
@given(
    payload=_mostly(st.just(THREE_BOX), scenario_files()),
    kappa=KAPPA_TEXT,
    coupling=POINTER_TEXT,
    width=POINTER_TEXT,
    shots=SHOTS,
    seed=SEEDS,
    sweep=st.booleans(),
)
# coupling**2 underflows while the eigenvalue spread squared overflows
@example(
    payload=THREE_BOX | {"kappa": [0.0, 0.0, 1e300]}, kappa=None, coupling="1e-300", width="1", shots=1000, seed=1, sweep=False
)
def test_weak_argv_and_files(payload, kappa, coupling, width, shots, seed, sweep):
    argv = ["weak", "{file}", f"--coupling={coupling}", f"--width={width}", f"--shots={shots}", f"--seed={seed}"]
    argv += [] if kappa is None else [f"--kappa={kappa}"]
    run_contract(argv + (["--sweep"] if sweep else []), payload)
