"""cli-cold: each request is one fresh ``python -m kdqlab`` process.

Import, argparse, file parsing and rendering make up nearly all of the time;
the engine is at most a few milliseconds of it. The workload shows import and
CLI gains and bypasses batched kernels and the sampler. The traced run
replays the same argv through in-process ``cli.main`` with stdout and stderr
captured.
"""

from __future__ import annotations

import io
import json
import math
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from common import Completed, GateError, Outcome, check, quantile, rate, run_child
from inputs import ENGINE_DIMS, haar_config, rng_for, scenario_file_payload, write_json

FORMATS = ("table", "json", "csv")
FIXED = ("three-box", "cheshire-cat", "hardy", "peres-mermin")
WEAK_SHOTS = 100_000
WEAK_RATIOS = (0.5, 1.0, 4.0)
JSON_TOL = 1e-12  # the README's guarantee for JSON output
QUAD_TOL = 1e-8  # relative to max(1, |closed-form mean|)
Z_BOUND = 6.0
SWEEP_ROWS = 6


@dataclass(frozen=True)
class Request:
    kind: str  # scenario | kd | weak | bad
    argv: tuple[str, ...]
    fmt: str = "table"
    name: str | None = None
    theta: float | None = None
    path: str | None = None
    width: float = 1.0
    known_defect: bool = False


def _close(got: float, want: float) -> bool:
    """Agreement to the 12 significant digits the CLI prints."""
    return math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-12)


def _round(seed: int, index: int, workdir: Path) -> list[Request]:
    """One request per slot, in slot order; files for this round are written to ``workdir``.

    Slots keep their kind, name and dimension from round to round. Formats,
    ``--theta``, ``action_phase``, pointer widths and the bad input rotate
    with the round, so that four rounds cover every scenario in every format
    and every bad input.
    """
    rng = rng_for(seed, 1, index)
    tag = f"r{index:04d}"
    requests: list[Request] = []

    thetas = {"leggett-garg": float(rng.uniform(0.05, math.pi - 0.05)), "bell": float(rng.uniform(0.0, math.pi / 2))}
    for k, name in enumerate(("leggett-garg", "bell") + FIXED):
        theta = thetas[name] if name in thetas and (k + index) % 2 else None
        fmt = FORMATS[(k + index) % 3]
        argv = ("scenario", name) + (("--theta", repr(theta)) if theta is not None else ()) + ("--format", fmt)
        requests.append(Request("scenario", argv, fmt, name=name, theta=theta))

    for k, dim in enumerate(ENGINE_DIMS):
        phase = (k + index) % 2 == 0
        path = write_json(workdir / f"{tag}-kd{k}.json", scenario_file_payload(haar_config(rng, dim), action_phase=phase))
        fmt = FORMATS[(k + index) % 3]
        requests.append(Request("kd", ("kd", str(path), "--format", fmt), fmt, path=str(path)))

    dim = int(rng.integers(2, 5))
    kappa = tuple(float(x) for x in rng.uniform(-1.0, 1.0, dim))
    path = write_json(workdir / f"{tag}-weak.json", scenario_file_payload(haar_config(rng, dim), kappa=kappa))
    width = WEAK_RATIOS[index % 3]
    argv = ("weak", str(path), "--coupling", "1", "--width", repr(width), "--shots", str(WEAK_SHOTS))
    argv += ("--seed", str(int(rng.integers(0, 2**32))), "--sweep")
    requests.append(Request("weak", argv, path=str(path), width=width))

    # bad input: each must exit 2 with a one-line message
    good = scenario_file_payload(haar_config(rng, 3), kappa=(0.0, 0.0, 1.0))
    weak_args = ("--coupling", "1", "--width", "1", "--shots", "1000")
    bad = index % 4
    if bad == 0:
        truncated = workdir / f"{tag}-bad-truncated.json"
        truncated.write_text(json.dumps(good)[: len(json.dumps(good)) // 2], encoding="utf-8")
        requests.append(Request("bad", ("kd", str(truncated))))
    elif bad == 1:
        unknown = write_json(workdir / f"{tag}-bad-unknown.json", {**good, "basis_c": good["basis_b"]})
        requests.append(Request("bad", ("kd", str(unknown), "--format", "json")))
    elif bad == 2:
        skewed = dict(good, basis_m=[good["basis_m"][0], good["basis_m"][0], good["basis_m"][2]])
        requests.append(Request("bad", ("weak", str(write_json(workdir / f"{tag}-bad-skewed.json", skewed))) + weak_args))
    else:
        valid = write_json(workdir / f"{tag}-bad-seed.json", good)
        # known defect: a negative seed raises a traceback and exits 1
        requests.append(Request("bad", ("weak", str(valid)) + weak_args + ("--seed", "-1"), known_defect=True))
    return requests


class Workload:
    # 13 fresh processes a round: four rounds fit the run budget, and give each
    # slot four repeats to take its fastest from
    min_rounds = 4

    def __init__(self, kd, seed: int, scratch: Path, in_process: bool) -> None:
        self.kd = kd
        self.seed = seed
        self.scratch = scratch
        self.in_process = in_process
        self._refs: dict = {}
        self.child_rss_mb = 0.0

    def round(self, index: int) -> list[Request]:
        return _round(self.seed, index, self.scratch)

    def warmup(self) -> None:
        request = Request("scenario", ("scenario", "three-box"))
        if self.in_process:
            self._main(request.argv)
        else:
            run_child(self._argv(request), self.scratch)

    def _argv(self, request: Request) -> list[str]:
        return [sys.executable, "-m", "kdqlab", *request.argv]

    def _main(self, argv) -> Completed:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.kd.cli.main(list(argv))
            except Exception:  # an uncaught error is what a user sees as exit 1
                traceback.print_exc()
                code = 1
        return Completed(code, out.getvalue(), err.getvalue(), 0.0, 0.0)

    def run(self, request: Request, call) -> Outcome:
        if self.in_process:
            start = perf_counter()
            done = call(self._main, request.argv)
            done.seconds = perf_counter() - start
        else:
            done = run_child(self._argv(request), self.scratch)
            self.child_rss_mb = max(self.child_rss_mb, done.maxrss_mb)
        outcome = Outcome(request.kind, done.seconds, True, known_defect=request.known_defect)
        try:
            self._gate(request, done, outcome)
        except (GateError, ValueError, KeyError, IndexError, StopIteration) as exc:
            outcome.ok = False
            outcome.reason = f"{request.kind}: {type(exc).__name__}: {exc}"[:200]
        if request.kind == "weak":
            outcome.shots = WEAK_SHOTS
        return outcome

    # -- gates -----------------------------------------------------------

    def _gate(self, request: Request, done: Completed, outcome: Outcome) -> None:
        if request.kind == "bad":
            lines = [line for line in done.err.splitlines() if line.strip()]
            check(done.code == 2, f"exit {done.code}, want 2")
            check(not done.out, "bad input wrote to stdout")
            check(len(lines) == 1 and lines[0].startswith("error:"), f"want one error line, got {len(lines)}")
            return
        check(done.code == 0, f"exit {done.code}: {done.err.strip()[-120:]}")
        if request.kind == "scenario":
            self._gate_scenario(request, done.out)
        elif request.kind == "kd":
            self._gate_kd(request, done.out)
        else:
            self._gate_weak(request, done.out, outcome)

    def _ref(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def _table_ref(self, path: str):
        def build():
            kdq = self.kd.kdq
            config = self.kd.scenario_file.load_scenario_file(path)
            dist = kdq.kd_joint(config.state_a, config.basis_m, config.basis_b)
            return config, dist, kdq.marginals(dist), kdq.negativity(dist)

        return self._ref(("kd", path), build)

    def _gate_table_json(self, payload: dict, dist, margins, neg) -> None:
        table = dist.table
        check(np.max(np.abs(np.array(payload["kd"]["re"]) - table.real)) <= JSON_TOL, "kd.re")
        check(np.max(np.abs(np.array(payload["kd"]["im"]) - table.imag)) <= JSON_TOL, "kd.im")
        for axis, want in zip("mb", margins):
            check(np.max(np.abs(np.array(payload["marginals"][axis]) - want)) <= JSON_TOL, f"marginal {axis}")
        check(abs(payload["negativity"]["total_negativity"] - neg.total_negativity) <= JSON_TOL, "negativity")

    def _gate_csv(self, out: str, dist) -> None:
        lines = out.strip().splitlines()
        check(lines[0] == "m_label,b_label,re,im,modulus,phase", "csv header")
        check(len(lines) == 1 + dist.dim**2, "csv rows")
        tol = self.kd.qcore.TOL
        for k, line in enumerate(lines[1:]):
            # labels may hold unquoted commas, so the four numbers are split off the right
            labels, re, im, modulus, phase = line.rsplit(",", 4)
            entry = complex(dist.table[k // dist.dim, k % dist.dim])
            check(labels == f"{dist.basis_m.labels[k // dist.dim]},{dist.basis_b.labels[k % dist.dim]}", "csv labels")
            check(_close(float(re), entry.real) and _close(float(im), entry.imag), f"csv entry {k}")
            check(_close(float(modulus), abs(entry)), f"csv modulus {k}")
            if abs(entry) > tol:
                check(_close(float(phase), float(np.angle(entry))), f"csv phase {k}")
            else:
                check(phase == "undefined", f"csv phase {k}")

    def _gate_scenario(self, request: Request, out: str) -> None:
        report = self._ref(("scenario", request.name, request.theta), lambda: self.kd.scenarios.build(request.name, request.theta))
        check(report.passed, "in-process report fails")
        if request.fmt == "json":
            payload = json.loads(out)
            check(payload["scenario"] == request.name and payload["pass"] is True, "json pass")
            self._gate_table_json(payload, report.kd, self.kd.kdq.marginals(report.kd), report.negativity)
        elif request.fmt == "csv":
            self._gate_csv(out, report.kd)
        else:
            check(out.startswith(f"scenario: {request.name}"), "table header")
            check(out.rstrip().endswith("overall: PASS"), "table does not end with overall: PASS")

    def _gate_kd(self, request: Request, out: str) -> None:
        config, dist, margins, neg = self._table_ref(request.path)
        if request.fmt == "json":
            payload = json.loads(out)
            self._gate_table_json(payload, dist, margins, neg)
            if config.action_phase is not None:
                rows = payload["overlaps"]
                check(len(rows) == dist.dim, "overlap rows")
                for row in rows:
                    if row["overlap_from_kd"] != "undefined":
                        check(abs(row["overlap_from_kd"] - row["overlap_direct"]) <= 1e-9, "overlap identity")
        elif request.fmt == "csv":
            self._gate_csv(out, dist)
        else:
            for axis, labels, want in (("m", dist.basis_m.labels, margins[0]), ("b", dist.basis_b.labels, margins[1])):
                line = next(line for line in out.splitlines() if line.startswith(f"P({axis}|a): "))
                cells = line.split(": ", 1)[1].split("  ")
                check([cell.split("=")[0] for cell in cells] == list(labels), f"P({axis}|a) labels")
                check(all(_close(float(cell.split("=")[1]), p) for cell, p in zip(cells, want)), f"P({axis}|a)")
            check(("transformed overlap" in out) == (config.action_phase is not None), "overlap table")

    def _gate_weak(self, request: Request, out: str, outcome: Outcome) -> None:
        weaksim, tol = self.kd.weaksim, self.kd.qcore.TOL
        config = self._table_ref(request.path)[0]
        a, basis_m, basis_b = config.state_a, config.basis_m, config.basis_b
        cfg = weaksim.PointerConfig(coupling=1.0, width=request.width, eigenvalue=config.kappa)
        lines = out.splitlines()
        start = lines.index(next(line for line in lines if line.startswith("b ")))
        total = 0
        for j, line in enumerate(lines[start + 1 : start + 1 + basis_b.dim]):
            label, p_text, closed_text, quad_text, _, n_text = line.split()
            check(label == basis_b.labels[j], "weak row label")
            n = int(n_text)
            total += n
            p = weaksim.post_selection_probability(a, basis_m, basis_b, cfg, j)
            if p <= tol:
                check(p_text == "undefined", "weak P(b) undefined")
                continue
            closed = weaksim.conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            check(_close(float(p_text), p) and _close(float(closed_text), closed), "weak closed form")
            quad_err = abs(float(quad_text) - closed)
            outcome.quad_err = max(outcome.quad_err, quad_err)
            check(quad_err <= QUAD_TOL * max(1.0, abs(closed)), "quadrature disagrees with the closed form")
            z = (n - WEAK_SHOTS * p) / math.sqrt(WEAK_SHOTS * p * (1.0 - p)) if p < 1.0 else 0.0
            outcome.zf = max(outcome.zf, abs(z))
            check(abs(z) <= Z_BOUND, "outcome frequency |z| over bound")
        check(total == WEAK_SHOTS, "weak shot count")
        sweep = lines.index("width sweep: conditional mean / coupling per final outcome")
        rows = lines[sweep + 3 :]
        check(len(rows) == SWEEP_ROWS, "sweep rows")
        for k, line in enumerate(rows):
            cells = line.split()
            swept = weaksim.PointerConfig(coupling=1.0, width=float(cells[0]), eigenvalue=cfg.eigenvalue)
            for j, cell in enumerate(cells[1:]):
                if cell != "undefined":
                    want = weaksim.conditional_pointer_mean(a, basis_m, basis_b, swept, j)
                    check(_close(float(cell), want), f"sweep row {k}")

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, best: list[Outcome], outcomes: list[Outcome]) -> tuple[dict, dict]:
        times = [o.seconds for o in best]
        configs = [o.seconds for o in best if o.kind in ("kd", "weak")]
        builds = [o.seconds for o in best if o.kind == "scenario"]
        weak = [o for o in best if o.kind == "weak"]
        metrics = {
            "latency_p50_s": quantile(times, 50),
            "latency_p90_s": quantile(times, 90),
            "configs_per_s": rate(len(configs), sum(configs)),
            "scenario_builds_per_s": rate(len(builds), sum(builds)),
            "peak_rss_mb": self.child_rss_mb,
        }
        extra = {"shots_per_s": rate(sum(o.shots for o in weak), sum(o.seconds for o in weak))}
        return metrics, extra
