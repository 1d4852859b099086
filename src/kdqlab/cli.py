"""Command-line front end: built-in scenarios, user joint tables, pointer runs.

Exit codes: 0 all checks pass, 2 input or usage error, 3 check failure.
Data goes to stdout; stderr has two channels, both written only by ``main``.
A command returns 0 or 3 and raises on rejected input: every rejection in the
library is a ``ValueError`` (``ScenarioFileError``, ``PostSelectionError``,
``DimensionMismatchError``, ...), which ``main`` prints as one
``error: <message>`` line with exit 2. Any other exception keeps its
traceback, so a programming error stays visible. Every warning issued while a
command runs, by the loader, the quadrature or numpy, prints as one
``warning: <message>`` line at the moment it is issued.

``scenario`` and ``kd`` each build one payload, a dict of unrounded engine
values: the joint table, its marginals and negativity, then the report's
checks or the file's overlap rows. A built-in and a file are both a
``ScenarioFile`` value, and both tables come from one step,
``scenarios.evaluate``, with the transformation that the report's checks or
the file's overlap rows read. The JSON, CSV and table views read only
that payload, so the three formats show the same numbers. There is one
rounding rule: every float is shown with 12 significant digits. The JSON view
rounds each float, writes complex values as [re, im] and leaves ints, bools,
strings and None alone; the text views print floats through ``_fmt``.

``run`` is the process entry of both launchers, ``python -m kdqlab`` and the
``kdqlab`` console script: it runs ``main`` and then ``gc.freeze()``, so the
interpreter's exit collections skip the roughly 22,000 objects that numpy,
the standard library and kdqlab allocated, and the OS reclaims them with the
process. No output depends on that teardown, and it was about a tenth of
every process: on a 2 vCPU shared VM (Python 3.11.7, numpy 2.4.6), over 30
runs of the cli-cold benchmark, the median ``python -m kdqlab`` request took
142 ms with it and 128 ms without it. Numpy's heap is nearly all of it: ``python -c "import
numpy"`` took 113 ms, and 98 ms with a freeze before exit. ``main`` itself
never freezes: a library must not make its caller's garbage uncollectable,
so tests, embedding callers and in-process replays are unaffected. An
exception that escapes ``main`` escapes ``run`` before the freeze, with its
traceback and exit 1.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import scenarios
from .kdq import (
    KDDistribution,
    NegativityReport,
    PostSelectionError,
    Transformation,
    negativity,
    weak_value,
)
from .qcore import TOL
from .scenario_file import load_scenario_file
from .weaksim import (
    PointerConfig,
    PointerStatistics,
    conditional_pointer_mean_quadrature,
    observable_from_eigenvalues,
    sample_moments,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3

SWEEP_RATIOS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
MAX_SHOTS = 10**8  # bounds the run time; `weak` folds the draw chunk by chunk, so its memory does not grow with it


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # the addition folds -0.0 into 0.0


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) <= TOL:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(line, widths)).rstrip() for line in [header, *rows]]
    return "\n".join(lines)


def _phase_text(entry: complex) -> str:
    return _fmt(float(np.angle(entry))) if abs(entry) > TOL else "undefined"


def _payload(scenario: str | None, dist: KDDistribution, neg: NegativityReport) -> dict:
    """Joint table, marginals and negativity of one result, as unrounded engine values."""
    return {
        "scenario": scenario,
        "dim": dist.dim,
        "kd": {
            "labels": {"m": list(dist.basis_m.labels), "b": list(dist.basis_b.labels)},
            "re": dist.table.real.tolist(),
            "im": dist.table.imag.tolist(),
        },
        "marginals": {"m": dist.prob_m.tolist(), "b": dist.prob_b.tolist()},
        "negativity": asdict(neg),
    }


def _json_view(value: object) -> object:
    """The payload as JSON data: floats to 12 significant digits, complex values as [re, im]."""
    if isinstance(value, dict):
        return {key: _json_view(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_view(item) for item in value]
    if isinstance(value, complex):
        return [_json_view(value.real), _json_view(value.imag)]
    return float(_fmt(value)) if isinstance(value, float) else value


def _entries(kd: dict) -> list[tuple[str, list[complex]]]:
    """Rows of the payload's joint table: (m label, complex entries in b order)."""
    return [
        (m, [complex(re, im) for re, im in zip(re_row, im_row)])
        for m, re_row, im_row in zip(kd["labels"]["m"], kd["re"], kd["im"])
    ]


def _csv_view(payload: dict) -> str:
    """One row per table cell, written by the ``csv`` module: a label that holds a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["m_label", "b_label", "re", "im", "modulus", "phase"])
    for m_label, row in _entries(payload["kd"]):
        for b_label, z in zip(payload["kd"]["labels"]["b"], row):
            writer.writerow([m_label, b_label, _fmt(z.real), _fmt(z.imag), _fmt(abs(z)), _phase_text(z)])
    return out.getvalue().removesuffix("\n")


def _table_view(payload: dict) -> str:
    kd, neg, rows = payload["kd"], payload["negativity"], _entries(payload["kd"])
    header = ["m \\ b", *kd["labels"]["b"]]
    lines = [] if payload["scenario"] is None else [f"scenario: {payload['scenario']}  (dim {payload['dim']})", ""]
    lines += [
        "joint quasi-probability table P(m, b | a)",
        _format_table(
            header,
            [
                [m_label] + [_fmt_complex(z) for z in row]
                for m_label, row in rows
            ],
        ),
        "",
        "modulus @ action phase",
        _format_table(
            header,
            [
                [m_label]
                + [f"{_fmt(abs(z))} @ {_phase_text(z)}" for z in row]
                for m_label, row in rows
            ],
        ),
        "",
        "P(m|a): " + "  ".join(f"{lab}={_fmt(p)}" for lab, p in zip(kd["labels"]["m"], payload["marginals"]["m"])),
        "P(b|a): " + "  ".join(f"{lab}={_fmt(p)}" for lab, p in zip(kd["labels"]["b"], payload["marginals"]["b"])),
        (
            f"negativity: total={_fmt(neg['total_negativity'])}  min_real={_fmt(neg['min_real'])}"
            f" at ({neg['argmin'][0]}, {neg['argmin'][1]})  max|phase|={_fmt(neg['max_abs_phase'])}"
        ),
    ]
    if "checks" in payload:
        lines += ["", "checks:"]
        for check in payload["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            lines.append(
                f"  {status}  {check['name']}: expected={_fmt_complex(complex(check['expected']))}"
                f" got={_fmt_complex(complex(check['got']))} tol={check['tolerance']:g}"
            )
        if payload["violated_inequality"]:
            lines.append(f"violated inequality: {payload['violated_inequality']}")
        lines.append(f"overall: {'PASS' if payload['pass'] else 'FAIL'}")
    if "overlaps" in payload:
        cells = [[v if isinstance(v, str) else _fmt(v) for v in row.values()] for row in payload["overlaps"]]
        lines += ["", "transformed overlap per final outcome (table route vs direct route)"]
        lines.append(_format_table(["b", "overlap_from_kd", "overlap_direct", "difference"], cells))
    return "\n".join(lines)


# --format name -> view of the payload, in the order that --help lists them
_VIEWS = {"table": _table_view, "json": lambda p: json.dumps(_json_view(p)), "csv": _csv_view}


def _cmd_scenario(args: argparse.Namespace) -> int:
    theta = args.theta
    if theta is not None and args.deg:
        theta = math.radians(theta)
    report = scenarios.build(args.name, theta)
    payload = _payload(report.scenario, report.kd, report.negativity)
    payload |= {
        "checks": [
            {"name": c.name, "expected": c.expected, "got": c.got, "tolerance": c.tolerance, "pass": c.passed}
            for c in report.checks
        ],
        "violated_inequality": report.violated_inequality,
        "pass": report.passed,
    }
    print(_VIEWS[args.format](payload))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _overlap_rows(dist: KDDistribution, transform: Transformation) -> list[dict]:
    rows = []
    for j, label in enumerate(dist.basis_b.labels):
        direct, from_kd = transform.column(j)
        from_kd, difference = ("undefined", "undefined") if from_kd is None else (from_kd, abs(from_kd - direct))
        rows.append({"b": label, "overlap_from_kd": from_kd, "overlap_direct": direct, "difference": difference})
    return rows


def _cmd_kd(args: argparse.Namespace) -> int:
    # the loader's 1e-10 orthonormality can still fail the engine's checks at that tolerance
    dist, transform = scenarios.evaluate(load_scenario_file(args.file))
    payload = _payload(None, dist, negativity(dist))
    if transform is not None:
        payload["overlaps"] = _overlap_rows(dist, transform)
    print(_VIEWS[args.format](payload))
    return EXIT_OK


def _parse_kappa(text: str, dim: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--kappa must be comma-separated numbers: {exc}") from exc
    if len(values) != dim:
        raise ValueError(f"--kappa needs {dim} values, got {len(values)}")
    return values


def _cmd_weak(args: argparse.Namespace) -> int:
    if not 1 <= args.shots <= MAX_SHOTS:
        raise ValueError(f"--shots must be in 1..{MAX_SHOTS}, got {args.shots}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in 0..2**64-1, got {args.seed}")
    config = load_scenario_file(args.file)
    kappa = config.kappa if args.kappa is None else _parse_kappa(args.kappa, config.state_a.dim)
    if kappa is None:
        raise ValueError("no eigenvalues: pass --kappa or add a 'kappa' field to the file")
    cfg = PointerConfig(coupling=args.coupling, width=args.width, eigenvalue=kappa)
    a, basis_m, basis_b = config.state_a, config.basis_m, config.basis_b
    try:
        swept = [
            PointerStatistics(a, basis_m, basis_b, replace(cfg, width=ratio * cfg.coupling))
            for ratio in (SWEEP_RATIOS if args.sweep else ())
        ]
    except ValueError as exc:
        raise ValueError(f"--sweep: {exc}") from exc
    stats = PointerStatistics(a, basis_m, basis_b, cfg)
    count, empirical = sample_moments(a, basis_m, basis_b, cfg, args.shots, args.seed)

    print(
        f"pointer measurement: coupling={_fmt(cfg.coupling)} width={_fmt(cfg.width)}"
        f" kappa=({','.join(_fmt(k) for k in cfg.eigenvalue)}) shots={args.shots} seed={args.seed}"
    )
    header = ["b", "P(b)", "mean_closed", "mean_quadrature", "mean_empirical", "n"]
    rows = []
    for j, (label, mass, closed) in enumerate(zip(basis_b.labels, stats.probability, stats.mean)):
        if closed is None:
            rows.append([label, "undefined", "undefined", "undefined", "undefined", str(count[j])])
            continue
        quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
        mean = "n/a" if empirical[j] is None else _fmt(empirical[j])
        rows.append([label, _fmt(mass), _fmt(closed), _fmt(quad), mean, str(count[j])])
    print(_format_table(header, rows))

    if args.sweep:
        observable = observable_from_eigenvalues(basis_m, cfg.eigenvalue)
        targets = []
        for j, label in enumerate(basis_b.labels):
            try:
                targets.append(_fmt(weak_value(a, basis_b.vectors[j], observable).real))
            except PostSelectionError:
                targets.append("undefined")
        print("\nwidth sweep: conditional mean / coupling per final outcome")
        print("target Re(weak value): " + "  ".join(f"{lab}={t}" for lab, t in zip(basis_b.labels, targets)))
        rows = [
            [_fmt(ratio)] + ["undefined" if mean is None else _fmt(mean / cfg.coupling) for mean in record.mean]
            for ratio, record in zip(SWEEP_RATIOS, swept)
        ]
        print(_format_table(["width/coupling", *basis_b.labels], rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdqlab",
        description="Complex joint quasi-probabilities: scenario reports, user tables, pointer simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a built-in paradox scenario")
    p_scenario.add_argument("name", choices=scenarios.SCENARIO_NAMES)
    p_scenario.add_argument("--theta", type=float, default=None, help="angle parameter (radians unless --deg)")
    p_scenario.add_argument("--deg", action="store_true", help="interpret --theta in degrees")
    p_scenario.add_argument("--format", choices=tuple(_VIEWS), default="table")
    p_scenario.set_defaults(func=_cmd_scenario)

    p_kd = sub.add_parser("kd", help="evaluate a scenario file through the engine")
    p_kd.add_argument("file")
    p_kd.add_argument("--format", choices=tuple(_VIEWS), default="table")
    p_kd.set_defaults(func=_cmd_kd)

    p_weak = sub.add_parser("weak", help="pointer-measurement run over a scenario file")
    p_weak.add_argument("file")
    p_weak.add_argument("--kappa", default=None, help="comma-separated eigenvalues of the measured observable")
    p_weak.add_argument("--coupling", type=float, required=True)
    p_weak.add_argument("--width", type=float, required=True)
    p_weak.add_argument("--shots", type=int, default=100000)
    p_weak.add_argument("--seed", type=int, default=1234)
    p_weak.add_argument("--sweep", action="store_true", help="add a width-ratio convergence table")
    p_weak.set_defaults(func=_cmd_weak)
    return parser


def _print_warning(message: Warning | str, *_: object) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code) if exc.code is not None else EXIT_OK
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = _print_warning
                try:
                    code = int(args.func(args))
                except ValueError as exc:  # rejected input, from any layer
                    print(f"error: {exc}", file=sys.stderr)
                    code = EXIT_USAGE
        sys.stdout.flush()  # a closed pipe then raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early (`| head`). Point stdout at devnull so that the
        # flush at exit cannot raise again, as the SIGPIPE note of the signal docs shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


def run() -> int:
    """Process entry: ``main`` on ``sys.argv``, then freeze the collector; the caller exits at once."""
    code = main()
    gc.freeze()  # exit collections skip every object now tracked; the OS reclaims the module graph
    return code
