"""Command-line front end: built-in scenarios, user joint tables, pointer runs.

Exit codes: 0 all checks pass, 2 input or usage error, 3 check failure.
Data goes to stdout, warnings and diagnostics to stderr. Floating output is
printed with 12 significant digits; complex values serialize as [re, im].
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import scenarios
from .kdq import (
    ActionSpectrum,
    KDDistribution,
    NegativityReport,
    PostSelectionError,
    UndefinedOverlapError,
    kd_joint,
    marginals,
    negativity,
    overlap_direct,
    overlap_from_kd,
    unitary_from_actions,
    weak_value,
)
from .qcore import TOL
from .scenario_file import ScenarioFile, ScenarioFileError, load_scenario_file
from .weaksim import (
    PointerConfig,
    conditional_pointer_mean,
    conditional_pointer_mean_quadrature,
    observable_from_eigenvalues,
    post_selection_probability,
    sample,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3

SWEEP_RATIOS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
MAX_SHOTS = 10**8  # readings and outcome indices take 16 bytes per shot


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.12g}"  # the addition folds -0.0 into 0.0


def _round12(x: float) -> float:
    return float(_fmt(x))


def _fmt_complex(z: complex) -> str:
    if abs(z.imag) <= TOL:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _json_value(value: complex | float) -> float | list[float]:
    z = complex(value)
    if isinstance(value, complex) or abs(z.imag) > 0.0:
        return [_round12(z.real), _round12(z.imag)]
    return _round12(z.real)


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(line, widths)).rstrip() for line in [header, *rows]]
    return "\n".join(lines)


def _phase_text(entry: complex) -> str:
    return _fmt(float(np.angle(entry))) if abs(entry) > TOL else "undefined"


def _kd_json(dist: KDDistribution, neg: NegativityReport) -> dict:
    prob_m, prob_b = marginals(dist)
    return {
        "kd": {
            "labels": {"m": list(dist.basis_m.labels), "b": list(dist.basis_b.labels)},
            "re": [[_round12(v) for v in row] for row in dist.table.real.tolist()],
            "im": [[_round12(v) for v in row] for row in dist.table.imag.tolist()],
        },
        "marginals": {
            "m": [_round12(v) for v in prob_m.tolist()],
            "b": [_round12(v) for v in prob_b.tolist()],
        },
        "negativity": {
            "total_negativity": _round12(neg.total_negativity),
            "min_real": _round12(neg.min_real),
            "argmin": list(neg.argmin),
            "max_abs_phase": _round12(neg.max_abs_phase),
        },
    }


def _kd_csv(dist: KDDistribution) -> str:
    lines = ["m_label,b_label,re,im,modulus,phase"]
    for i, m_label in enumerate(dist.basis_m.labels):
        for j, b_label in enumerate(dist.basis_b.labels):
            entry = complex(dist.table[i, j])
            lines.append(
                ",".join(
                    [
                        m_label,
                        b_label,
                        _fmt(entry.real),
                        _fmt(entry.imag),
                        _fmt(abs(entry)),
                        _phase_text(entry),
                    ]
                )
            )
    return "\n".join(lines)


def _kd_text(dist: KDDistribution, neg: NegativityReport) -> str:
    prob_m, prob_b = marginals(dist)
    header = ["m \\ b"] + list(dist.basis_b.labels)
    value_rows = [
        [m_label] + [_fmt_complex(complex(v)) for v in dist.table[i]]
        for i, m_label in enumerate(dist.basis_m.labels)
    ]
    polar_rows = [
        [m_label]
        + [f"{_fmt(abs(complex(v)))} @ {_phase_text(complex(v))}" for v in dist.table[i]]
        for i, m_label in enumerate(dist.basis_m.labels)
    ]
    parts = [
        "joint quasi-probability table P(m, b | a)",
        _format_table(header, value_rows),
        "",
        "modulus @ action phase",
        _format_table(header, polar_rows),
        "",
        "P(m|a): " + "  ".join(f"{lab}={_fmt(p)}" for lab, p in zip(dist.basis_m.labels, prob_m)),
        "P(b|a): " + "  ".join(f"{lab}={_fmt(p)}" for lab, p in zip(dist.basis_b.labels, prob_b)),
        (
            f"negativity: total={_fmt(neg.total_negativity)}  min_real={_fmt(neg.min_real)}"
            f" at ({neg.argmin[0]}, {neg.argmin[1]})  max|phase|={_fmt(neg.max_abs_phase)}"
        ),
    ]
    return "\n".join(parts)


def _check_json(check: scenarios.Check) -> dict:
    return {
        "name": check.name,
        "expected": _json_value(check.expected),
        "got": _json_value(check.got),
        "tolerance": check.tolerance,
        "pass": check.passed,
    }


def _scenario_json(report: scenarios.ScenarioReport) -> dict:
    neg = report.negativity
    payload = {"scenario": report.scenario, "dim": report.dim}
    payload.update(_kd_json(report.kd, neg))
    payload["checks"] = [_check_json(c) for c in report.checks]
    payload["violated_inequality"] = report.violated_inequality
    payload["pass"] = report.passed
    return payload


def _scenario_text(report: scenarios.ScenarioReport) -> str:
    lines = [
        f"scenario: {report.scenario}  (dim {report.dim})",
        "",
        _kd_text(report.kd, report.negativity),
        "",
        "checks:",
    ]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"  {status}  {check.name}: expected={_fmt_complex(complex(check.expected))}"
            f" got={_fmt_complex(complex(check.got))} tol={check.tolerance:g}"
        )
    if report.violated_inequality:
        lines.append(f"violated inequality: {report.violated_inequality}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _cmd_scenario(args: argparse.Namespace) -> int:
    theta = args.theta
    if theta is not None and args.deg:
        theta = math.radians(theta)
    try:
        report = scenarios.build(args.name, theta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(_scenario_json(report)))
    elif args.format == "csv":
        print(_kd_csv(report.kd))
    else:
        print(_scenario_text(report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _load_file(path: str) -> ScenarioFile | None:
    try:
        config = load_scenario_file(path)
    except ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _overlap_rows(config: ScenarioFile, dist: KDDistribution) -> list[dict]:
    spectrum = ActionSpectrum(config.basis_m, config.action_phase)
    unitary = unitary_from_actions(spectrum)
    rows = []
    for j, label in enumerate(config.basis_b.labels):
        direct = overlap_direct(config.state_a, config.basis_b.vectors[j], unitary)
        try:
            from_kd = overlap_from_kd(dist, spectrum, j)
        except UndefinedOverlapError:
            from_kd = difference = "undefined"
        else:
            from_kd, difference = _round12(from_kd), _round12(abs(from_kd - direct))
        rows.append(
            {"b": label, "overlap_from_kd": from_kd, "overlap_direct": _round12(direct), "difference": difference}
        )
    return rows


def _cmd_kd(args: argparse.Namespace) -> int:
    config = _load_file(args.file)
    if config is None:
        return EXIT_USAGE
    dist = kd_joint(config.state_a, config.basis_m, config.basis_b)
    neg = negativity(dist)
    overlap_rows = _overlap_rows(config, dist) if config.action_phase is not None else None

    if args.format == "json":
        payload = {"scenario": None, "dim": config.dim}
        payload.update(_kd_json(dist, neg))
        if overlap_rows is not None:
            payload["overlaps"] = overlap_rows
        print(json.dumps(payload))
    elif args.format == "csv":
        print(_kd_csv(dist))
    else:
        print(_kd_text(dist, neg))
        if overlap_rows is not None:
            print()
            print("transformed overlap per final outcome (table route vs direct route)")
            header = ["b", "overlap_from_kd", "overlap_direct", "difference"]
            rows = [[v if isinstance(v, str) else _fmt(v) for v in row.values()] for row in overlap_rows]
            print(_format_table(header, rows))
    return EXIT_OK


def _parse_kappa(text: str, dim: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ScenarioFileError(f"--kappa must be comma-separated numbers: {exc}") from exc
    if len(values) != dim:
        raise ScenarioFileError(f"--kappa needs {dim} values, got {len(values)}")
    return values


def _cmd_weak(args: argparse.Namespace) -> int:
    if not 1 <= args.shots <= MAX_SHOTS:
        print(f"error: --shots must be in 1..{MAX_SHOTS}, got {args.shots}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.seed < 2**64:
        print(f"error: --seed must be in 0..2**64-1, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    config = _load_file(args.file)
    if config is None:
        return EXIT_USAGE
    try:
        if args.kappa is not None:
            kappa = _parse_kappa(args.kappa, config.dim)
        elif config.kappa is not None:
            kappa = config.kappa
        else:
            raise ScenarioFileError("no eigenvalues: pass --kappa or add a 'kappa' field to the file")
        cfg = PointerConfig(coupling=args.coupling, width=args.width, eigenvalue=kappa)
    except (ScenarioFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        swept = [
            PointerConfig(coupling=cfg.coupling, width=ratio * cfg.coupling, eigenvalue=cfg.eigenvalue)
            for ratio in (SWEEP_RATIOS if args.sweep else ())
        ]
    except ValueError as exc:
        print(f"error: --sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    a, basis_m, basis_b = config.state_a, config.basis_m, config.basis_b
    batch = sample(a, basis_m, basis_b, cfg, args.shots, args.seed)

    print(
        f"pointer measurement: coupling={_fmt(cfg.coupling)} width={_fmt(cfg.width)}"
        f" kappa=({','.join(_fmt(k) for k in cfg.eigenvalue)}) shots={args.shots} seed={args.seed}"
    )
    header = ["b", "P(b)", "mean_closed", "mean_quadrature", "mean_empirical", "n"]
    rows = []
    for j, label in enumerate(basis_b.labels):
        mass = post_selection_probability(a, basis_m, basis_b, cfg, j)
        selected = batch.readings[batch.b_index == j]
        count = int(selected.size)
        if mass <= TOL:
            rows.append([label, "undefined", "undefined", "undefined", "undefined", str(count)])
            continue
        closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
        for caught_warning in caught:
            print(f"warning: {caught_warning.message}", file=sys.stderr)
        empirical = _fmt(float(selected.mean())) if count else "n/a"
        rows.append([label, _fmt(mass), _fmt(closed), _fmt(quad), empirical, str(count)])
    print(_format_table(header, rows))

    if args.sweep:
        observable = observable_from_eigenvalues(basis_m, cfg.eigenvalue)
        targets = []
        for j, label in enumerate(basis_b.labels):
            try:
                targets.append(_fmt(weak_value(a, basis_b.vectors[j], observable).real))
            except PostSelectionError:
                targets.append("undefined")
        print()
        print("width sweep: conditional mean / coupling per final outcome")
        print("target Re(weak value): " + "  ".join(f"{lab}={t}" for lab, t in zip(basis_b.labels, targets)))
        header = ["width/coupling"] + list(basis_b.labels)
        rows = []
        for ratio, swept_cfg in zip(SWEEP_RATIOS, swept):
            row = [_fmt(ratio)]
            for j in range(basis_b.dim):
                try:
                    row.append(_fmt(conditional_pointer_mean(a, basis_m, basis_b, swept_cfg, j) / cfg.coupling))
                except PostSelectionError:
                    row.append("undefined")
            rows.append(row)
        print(_format_table(header, rows))
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
    p_scenario.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_scenario.set_defaults(func=_cmd_scenario)

    p_kd = sub.add_parser("kd", help="evaluate a scenario file through the engine")
    p_kd.add_argument("file")
    p_kd.add_argument("--format", choices=("table", "json", "csv"), default="table")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code) if exc.code is not None else EXIT_OK
        else:
            code = int(args.func(args))
        sys.stdout.flush()  # a closed pipe then raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader stopped early (`| head`). Point stdout at devnull so that the
        # flush at exit cannot raise again, as the SIGPIPE note of the signal docs shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
