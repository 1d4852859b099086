#!/usr/bin/env python3
"""Byte-identity snapshot of the kdqlab command line.

Writes seeded scenario files into OUTDIR, runs a fixed table of
``python -m kdqlab`` commands in fresh processes from that directory (file
arguments are relative paths), and writes one file per command under
``OUTDIR/runs`` holding its argv, exit code, stdout and stderr. The inputs
are built with numpy alone, so two source trees get the same files. New rows
go at the end of the table, so every earlier record keeps its number.

The CLI prints 12 significant digits, so a change in the last bits of a
result can hide behind the rounding. ``OUTDIR/reports.txt`` shows it: for
each distinct (name, theta) among the ``scenario`` rows that exit 0, with
``--deg`` converted, the report is built in process through
``kdqlab.scenarios.build``, and the file lists every check name with the
``float.hex`` of the real and imaginary part of its ``got``, and the joint
table's bytes in hex. To compare two trees, snapshot each and diff the
directories:

    PYTHONPATH=/path/to/old/src python scripts/cli_snapshot.py /tmp/snap-old
    PYTHONPATH=/path/to/new/src python scripts/cli_snapshot.py /tmp/snap-new
    diff -r /tmp/snap-old /tmp/snap-new

Exits 1 if any command's exit code differs from the one its table row lists,
or if a command that should exit 0 writes to stderr and its row is not in
``MAY_WARN``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from kdqlab.scenarios import build

HAAR_DIMS = (1, 2, 3, 4, 8, 16)
FORMATS = ("table", "json", "csv")
SCENARIOS = ("leggett-garg", "three-box", "cheshire-cat", "hardy", "peres-mermin", "bell")
# the exit-0 rows that are expected to print a warning line; every other exit-0 row keeps stderr empty
MAY_WARN = (
    "kd d1-unnormalized.json",
    "weak three-box.json --coupling 1 --width 1e12 --sweep",
    "weak three-box-unnormalized.json --coupling 1 --width 2",
)


def _pairs(amplitudes) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(amplitudes, dtype=complex)]


def _haar_file(dim: int, seed: int, action_phase: bool) -> dict:
    """Random state, two Haar-random bases (phase-fixed QR) and the eigenvalues 0..dim-1 as ``kappa``."""
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    bases = []
    for _ in range(2):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        diag = np.diagonal(r)
        bases.append([_pairs(row) for row in (q * (diag / np.abs(diag)).conj()).T])
    content = {
        "dim": dim,
        "state_a": _pairs(state / np.linalg.norm(state)),
        "basis_m": bases[0],
        "basis_b": bases[1],
        "kappa": [float(k) for k in range(dim)],
    }
    if action_phase:
        content["action_phase"] = rng.uniform(-math.pi, math.pi, dim).tolist()
    return content


def _three_box_file(state: list[float], kappa: list[float]) -> dict:
    s = 1.0 / math.sqrt(3.0)
    return {
        "dim": 3,
        "state_a": [[x, 0.0] for x in state],
        "basis_m": [_pairs(row) for row in np.eye(3)],
        "basis_b": [
            _pairs([s, s, -s]),
            _pairs(np.array([1.0, 1.0, 2.0]) / math.sqrt(6.0)),
            _pairs(np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)),
        ],
        "labels_m": ["1", "2", "3"],
        "labels_b": ["b", "rest", "null"],
        "action_phase": [0.0, 0.0, math.pi],
        "kappa": kappa,
    }


def input_files() -> dict[str, dict]:
    s = 1.0 / math.sqrt(3.0)
    files = {}
    for dim in HAAR_DIMS:
        files[f"haar-d{dim}.json"] = _haar_file(dim, 100 + dim, action_phase=True)
        files[f"haar-d{dim}-plain.json"] = _haar_file(dim, 100 + dim, action_phase=False)
    files["three-box.json"] = _three_box_file([s, s, s], [0.0, 0.0, 1.0])
    files["three-box-unnormalized.json"] = _three_box_file([1.0, 1.0, 1.0], [0.0, 0.0, 1.0])
    files["kappa-huge.json"] = _three_box_file([s, s, s], [0.0, 1.5e308, 1.5e308])
    d4 = files["haar-d4.json"]  # the same file with action phases of magnitude up to pi 1e8
    files["haar-d4-phases-1e8.json"] = {**d4, "action_phase": [1e8 * phase for phase in d4["action_phase"]]}
    files["d1-unnormalized.json"] = {
        "dim": 1,
        "state_a": [[3.0, 4.0]],
        "basis_m": [[[1.0, 0.0]]],
        "basis_b": [[[0.0, 1.0]]],
    }
    return files


def commands() -> list[tuple[int, list[str]]]:
    """(expected exit code, arguments after ``kdqlab``) for every command, in run order."""
    table = [(0, ["--help"])] + [(0, [cmd, "--help"]) for cmd in ("scenario", "kd", "weak")]
    table += [(0, ["scenario", name, "--format", fmt]) for name in SCENARIOS for fmt in FORMATS]
    for theta in ("0", "1e-10", "1.5e-10", "2e-10", "7e-11", "0.3", repr(math.pi / 2)):
        table += [(0, ["scenario", "bell", "--theta", theta, "--format", fmt]) for fmt in ("table", "json")]
    table.append((0, ["scenario", "bell", "--theta", "5e-11"]))
    for theta in ("0.05", "2.5", repr(math.pi / 2), "1e-320", "3.1415926535897"):
        table.append((0, ["scenario", "leggett-garg", "--theta", theta, "--format", "json"]))
    table.append((0, ["scenario", "leggett-garg", "--theta", "60", "--deg"]))
    table += [
        (2, ["scenario", "ghz"]),
        (2, ["scenario", "three-box", "--theta", "1"]),
        (2, ["scenario", "leggett-garg", "--theta", "0"]),
        (2, ["scenario", "bell", "--theta", "2"]),
    ]
    for dim in HAAR_DIMS:
        for name in (f"haar-d{dim}.json", f"haar-d{dim}-plain.json"):
            table += [(0, ["kd", name, "--format", fmt]) for fmt in FORMATS]
    table += [(0, ["kd", "three-box.json", "--format", fmt]) for fmt in FORMATS]
    table.append((0, ["kd", "d1-unnormalized.json"]))
    pointer = ["--coupling", "1"]
    table += [
        (0, ["weak", "three-box.json", *pointer, "--width", "2", "--sweep"]),
        (0, ["weak", "three-box.json", *pointer, "--width", "0.05", "--sweep"]),
        (0, ["weak", "three-box.json", *pointer, "--width", "50", "--shots", "1000000"]),
        (0, ["weak", "three-box.json", *pointer, "--width", "1e12", "--sweep"]),
        (0, ["weak", "three-box.json", "--kappa", "0,0,1000", *pointer, "--width", "0.01"]),
        (0, ["weak", "kappa-huge.json", "--coupling", "1e-300", "--width", "1", "--shots", "1000", "--seed", "1"]),
        (0, ["weak", "three-box-unnormalized.json", *pointer, "--width", "2"]),
        (0, ["weak", "haar-d8.json", *pointer, "--width", "4", "--sweep"]),
        (0, ["weak", "haar-d16.json", *pointer, "--width", "4", "--sweep"]),
        (2, ["weak", "three-box.json", *pointer, "--width", "2", "--seed", "-1"]),
        (2, ["weak", "three-box.json", *pointer, "--width", "2", "--shots", "0"]),
    ]
    # Bell where <K> - 2 crosses TOL, near theta = 5e-11 and pi/2 - 5e-11, and kd on phases far outside (-pi, pi]
    table += [(0, ["scenario", "bell", "--theta", theta]) for theta in ("5.00005e-11", "1.5707963267448957")]
    table.append((0, ["kd", "haar-d4-phases-1e8.json"]))
    return table


def scenario_key(args: list[str]) -> tuple[str, float | None]:
    """The (name, theta) that a ``scenario`` row builds, ``--deg`` converted as the CLI converts it."""
    theta = float(args[args.index("--theta") + 1]) if "--theta" in args else None
    if theta is not None and "--deg" in args:
        theta = math.radians(theta)
    return args[1], theta


def report_bits(keys) -> str:
    """Per report: every check name with the hex bits of its ``got``, then the joint table's bytes in hex."""
    lines = []
    for name, theta in keys:
        report = build(name, theta)
        lines.append(f"scenario {name} theta={theta!r}")
        for check in report.checks:
            got = complex(check.got)
            lines.append(f"  {check.name}: {got.real.hex()} {got.imag.hex()}")
        lines.append(f"  table: {report.kd.table.tobytes().hex()}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", type=Path)
    outdir = parser.parse_args().outdir
    runs = outdir / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    for name, content in input_files().items():
        (outdir / name).write_text(json.dumps(content, indent=1) + "\n", encoding="utf-8")

    env = dict(os.environ, COLUMNS="80")  # argparse wraps --help to this width
    if env.get("PYTHONPATH"):  # the commands run from OUTDIR, so relative entries would break
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    wrong = noisy = 0
    built = {}  # the (name, theta) of each exit-0 scenario row, in run order, once
    for number, (expected, args) in enumerate(commands(), start=1):
        done = subprocess.run(
            [sys.executable, "-m", "kdqlab", *args], cwd=outdir, env=env, capture_output=True, text=True
        )
        line = " ".join(args)
        record = f"argv: kdqlab {line}\nexit: {done.returncode}\n"
        record += f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (runs / f"{number:03d}.txt").write_text(record, encoding="utf-8")
        if done.returncode == 0 and args[0] == "scenario" and "--help" not in args:
            built[scenario_key(args)] = None
        if done.returncode != expected:
            wrong += 1
            print(f"{number:03d} kdqlab {line}: exit {done.returncode}, expected {expected}", file=sys.stderr)
        elif expected == 0 and done.stderr and line not in MAY_WARN:
            noisy += 1
            first = done.stderr.splitlines()[0]
            print(f"{number:03d} kdqlab {line}: exit 0 but wrote to stderr: {first}", file=sys.stderr)
    (outdir / "reports.txt").write_text(report_bits(built), encoding="utf-8")
    print(f"{number} commands, {wrong} with an unexpected exit code, {noisy} with unexpected stderr; records in {runs}")
    print(f"{len(built)} scenario reports in process, their bits in {outdir / 'reports.txt'}")
    return 1 if wrong or noisy else 0


if __name__ == "__main__":
    sys.exit(main())
