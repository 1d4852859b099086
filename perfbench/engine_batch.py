"""engine-batch: in-process library use with the engine warm.

Phase 1 takes seeded Haar configurations at each dimension through value
construction, the joint table, marginals, negativity, the overlap identity
against the direct overlap, phase compensation and reconstruction (the
criterion-7 loop). Phase 2 sweeps the two parametric scenario builders over
theta and rebuilds the four fixed ones. Python-level validation, the basis
matrix stacks and scenario checks dominate; small dimensions expose overhead
and dimension 16 exposes arithmetic. Import cost is absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from common import WARMUP_ROUND, GateError, Outcome, check, peak_rss_self_mb, quantile, rate
from inputs import ENGINE_DIMS, haar_config, rng_for

CONFIGS_PER_DIM = 4  # per round
SWEEP_POINTS = 8  # per parametric scenario per round
FIXED = ("three-box", "cheshire-cat", "hardy", "peres-mermin")
FIXED_REPEATS = 2
IDENTITY_TOL = 1e-9  # tolerance of the overlap, optimality and reconstruction identities


@dataclass(frozen=True)
class Request:
    kind: str  # config | build
    config: dict | None = None
    name: str | None = None
    theta: float | None = None


def _sweep(rng, low: float, high: float) -> list[float]:
    """Evenly spaced grid with a seeded offset inside each cell."""
    step = (high - low) / SWEEP_POINTS
    return [low + (k + float(u)) * step for k, u in enumerate(rng.uniform(0.0, 1.0, SWEEP_POINTS))]


class Workload:
    min_rounds = 3  # a slot's latency is the fastest of its repeats

    def __init__(self, kd, seed: int, scratch: Path, in_process: bool = True) -> None:
        self.kd = kd
        self.seed = seed

    @staticmethod
    def _prepare(config: dict) -> dict:
        dim = config["dim"]
        return {
            **config,
            "labels_m": tuple(f"m{k}" for k in range(dim)),
            "labels_b": tuple(f"b{k}" for k in range(dim)),
            "phase": tuple(float(p) for p in config["phase"]),
            "other_phase": tuple(float(p) for p in config["other_phase"]),
        }

    def round(self, index: int) -> list[Request]:
        """One slot per (dimension, k), per sweep point and per fixed build; fresh inputs every round."""
        rng = rng_for(self.seed, 3, index)
        requests = [
            Request("config", config=self._prepare(haar_config(rng, dim)))
            for dim in ENGINE_DIMS
            for _ in range(CONFIGS_PER_DIM)
        ]
        requests += [Request("build", name="leggett-garg", theta=theta) for theta in _sweep(rng, 0.05, math.pi - 0.05)]
        requests += [Request("build", name="bell", theta=theta) for theta in _sweep(rng, 0.0, math.pi / 2)]
        requests += [Request("build", name=name) for _ in range(FIXED_REPEATS) for name in FIXED]
        return requests

    def warmup(self) -> None:
        for request in self.round(WARMUP_ROUND):
            self.run(request, lambda fn, *args: fn(*args))

    def _config_request(self, c: dict) -> dict:
        qcore, kdq = self.kd.qcore, self.kd.kdq
        a = qcore.StateVector(c["state_a"])
        basis_m = qcore.OrthonormalBasis(c["labels_m"], tuple(qcore.StateVector(row) for row in c["basis_m"]))
        basis_b = qcore.OrthonormalBasis(c["labels_b"], tuple(qcore.StateVector(row) for row in c["basis_b"]))
        dist = kdq.kd_joint(a, basis_m, basis_b)
        prob_m, prob_b = kdq.marginals(dist)
        neg = kdq.negativity(dist)
        j = int(np.argmax(prob_b))
        spectrum = kdq.ActionSpectrum(basis_m, c["phase"])
        direct = kdq.overlap_direct(a, basis_b.vectors[j], kdq.unitary_from_actions(spectrum))
        via_table = kdq.overlap_from_kd(dist, spectrum, j)
        column = dist.table[:, j]
        tol = qcore.TOL
        best = kdq.ActionSpectrum(basis_m, tuple(float(np.angle(z)) if abs(z) > tol else 0.0 for z in column))
        optimum = kdq.overlap_from_kd(dist, best, j)
        other = kdq.overlap_from_kd(dist, kdq.ActionSpectrum(basis_m, c["other_phase"]), j)
        rho = kdq.reconstruct_state(dist)
        return {
            "table": dist.table, "prob_m": prob_m, "prob_b": prob_b, "neg": neg, "j": j,
            "direct": direct, "via_table": via_table, "optimum": optimum, "other": other, "rho": rho.mat,
        }

    def _gate_config(self, c: dict, r: dict) -> None:
        """Every criterion-7 identity at its current tolerance, against numpy on the raw inputs."""
        tol = self.kd.qcore.TOL
        table, a = r["table"], c["state_a"]
        born_m = np.abs(c["basis_m"].conj() @ a) ** 2
        born_b = np.abs(c["basis_b"].conj() @ a) ** 2
        check(abs(complex(table.sum()) - 1.0) <= tol, "table does not sum to 1")
        check(float(np.max(np.abs(table.sum(axis=1) - born_m))) <= tol, "row sums differ from |<m|a>|^2")
        check(float(np.max(np.abs(table.sum(axis=0) - born_b))) <= tol, "column sums differ from |<b|a>|^2")
        check(float(np.max(np.abs(r["prob_m"] - born_m))) <= tol, "marginals(m)")
        check(float(np.max(np.abs(r["prob_b"] - born_b))) <= tol, "marginals(b)")
        check(abs(r["via_table"] - r["direct"]) <= IDENTITY_TOL, "overlap identity")
        column = table[:, r["j"]]
        bound = float(np.sum(np.abs(column))) ** 2 / float(born_b[r["j"]])
        check(abs(r["optimum"] - bound) <= IDENTITY_TOL, "phase compensation does not reach the bound")
        check(r["other"] <= r["optimum"] + IDENTITY_TOL, "another phase pattern beats the optimum")
        significant = np.abs(table) > tol
        negatives = table.real < 0.0
        large_phase = np.abs(np.angle(table)) > math.pi / 2
        check(np.array_equal(negatives[significant], large_phase[significant]), "sign/phase law")
        check(float(np.max(np.abs(r["rho"] - np.outer(a, a.conj())))) <= IDENTITY_TOL, "reconstruction")
        neg = r["neg"]
        check(abs(neg.total_negativity - float(np.sum(np.maximum(0.0, -table.real)))) <= 1e-12, "negativity total")
        check(neg.min_real == float(table.real.min()), "negativity min_real")

    def run(self, request: Request, call) -> Outcome:
        start = perf_counter()
        try:
            if request.kind == "config":
                result = call(self._config_request, request.config)
            else:
                result = call(self.kd.scenarios.build, request.name, request.theta)
        except Exception as exc:  # a request that raises is a failed request; the run goes on
            return Outcome(request.kind, perf_counter() - start, False, f"{request.kind}: raised {exc!r}"[:200])
        outcome = Outcome(request.kind, perf_counter() - start, True)
        try:
            if request.kind == "config":
                self._gate_config(request.config, result)
            else:
                check(result.scenario == request.name and result.passed, "report does not pass")
        except (GateError, ValueError) as exc:
            outcome.ok = False
            outcome.reason = f"{request.kind}: {exc}"[:200]
        return outcome

    def end_to_end(self, best: list[Outcome], outcomes: list[Outcome]) -> tuple[dict, dict]:
        configs = [o.seconds for o in best if o.kind == "config"]
        builds = [o.seconds for o in best if o.kind == "build"]
        times = [o.seconds for o in best]
        metrics = {
            "latency_p50_s": quantile(times, 50),
            "latency_p90_s": quantile(times, 90),
            "configs_per_s": rate(len(configs), sum(configs)),
            "scenario_builds_per_s": rate(len(builds), sum(builds)),
            "peak_rss_mb": peak_rss_self_mb(),
        }
        return metrics, {}
