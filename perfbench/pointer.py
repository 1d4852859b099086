"""pointer: in-process calls that mirror ``kdqlab weak`` and the weak convergence sweep.

Each request is one (scenario, pointer config) point: it draws the shots,
then for every final outcome b evaluates the post-selection probability, the
closed-form conditional mean and the quadrature mean. The sampler and the
quadrature make up nearly all of the time and memory; ``cli-cold`` mostly
bypasses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from common import GateError, Outcome, check, peak_rss_self_mb, quantile, rate
from inputs import haar_config, rng_for

SHOTS = 10**6
LARGE_SHOTS = 10**7
RATIOS = (50.0, 1.0, 0.05)  # pointer width over coupling
COUPLING = 1.0
THREE_BOX_KAPPA = (0.0, 0.0, 1.0)
# the pointer is narrow against the eigenvalue span: the grid sampler is
# known to return wrong statistics here, so this point fails its gate today
SPAN_HEAVY = {"kappa": (0.0, 0.0, 1000.0), "width": 0.01}
Z_BOUND = 6.0
QUAD_TOL = 1e-8  # relative to max(1, |closed-form mean|)
MIN_MEAN_SAMPLES = 30
# seeded dim-8 configurations, one per dim-8 slot: the quadrature's cost
# depends on the configuration, so one per run would make runs differ by
# their input
DIM8_POOL = 7
GATE_CHUNK = 2**20  # the gate's own temporaries stay small next to the sampler's

# one round of the mix, 25 slots: (input, width/coupling or "span", shots,
# repeats); the p50 falls inside the three-box group, whose input is fixed,
# and the p90 inside the dim-8 group rather than on the edge of the 1e7 point
MIX = (
    [("three-box", ratio, SHOTS, repeats) for ratio, repeats in zip(RATIOS, (5, 5, 5))]
    + [("three-box", "span", SHOTS, 2)]
    + [("dim8", ratio, SHOTS, repeats) for ratio, repeats in zip(RATIOS, (2, 2, 3))]
    + [("three-box", 1.0, LARGE_SHOTS, 1)]
)


@dataclass(frozen=True)
class Request:
    source: str  # three-box | dim8
    width: float
    kappa: tuple[float, ...]
    shots: int
    seed: int
    known_defect: bool = False
    config: int | None = None  # index into the dim-8 pool


class Workload:
    min_rounds = 4  # a point's latency is the fastest of its repeats

    def __init__(self, kd, seed: int, scratch: Path, in_process: bool = True) -> None:
        self.kd = kd
        self.seed = seed
        rng = rng_for(seed, 4)
        self.dim8 = [(haar_config(rng, 8), tuple(float(k) for k in rng.uniform(-1.0, 1.0, 8))) for _ in range(DIM8_POOL)]

    def round(self, index: int) -> list[Request]:
        """One slot per point of the mix; a slot keeps its input and pointer, and draws fresh shots every round."""
        points = []
        for source, ratio, shots, repeats in MIX:
            for _ in range(repeats):
                if ratio == "span":
                    points.append((source, SPAN_HEAVY["width"], SPAN_HEAVY["kappa"], shots, True, None))
                elif source == "three-box":
                    points.append((source, ratio * COUPLING, THREE_BOX_KAPPA, shots, False, None))
                else:
                    config = sum(p[0] == "dim8" for p in points) % DIM8_POOL
                    points.append((source, ratio * COUPLING, self.dim8[config][1], shots, False, config))
        seeds = rng_for(self.seed, 5, index).integers(0, 2**63, len(points))
        return [
            Request(source, width, kappa, shots, int(seed), defect, config)
            for (source, width, kappa, shots, defect, config), seed in zip(points, seeds)
        ]

    def warmup(self) -> None:
        self._request(Request("three-box", 1.0, THREE_BOX_KAPPA, 1000, 0))
        self._request(Request("dim8", 1.0, self.dim8[0][1], 1000, 0, config=0))

    def _inputs(self, request: Request):
        """The three-box point takes its input from the built-in scenario."""
        if request.source == "three-box":
            report = self.kd.scenarios.build("three-box")
            return report.kd.state_a, report.kd.basis_m, report.kd.basis_b
        qcore, c = self.kd.qcore, self.dim8[request.config][0]
        a = qcore.StateVector(c["state_a"])
        basis_m = qcore.OrthonormalBasis(tuple(f"m{k}" for k in range(8)), tuple(qcore.StateVector(r) for r in c["basis_m"]))
        basis_b = qcore.OrthonormalBasis(tuple(f"b{k}" for k in range(8)), tuple(qcore.StateVector(r) for r in c["basis_b"]))
        return a, basis_m, basis_b

    def _request(self, request: Request):
        weaksim, tol = self.kd.weaksim, self.kd.qcore.TOL
        a, basis_m, basis_b = self._inputs(request)
        cfg = weaksim.PointerConfig(coupling=COUPLING, width=request.width, eigenvalue=request.kappa)
        batch = weaksim.sample(a, basis_m, basis_b, cfg, request.shots, request.seed)
        rows = []
        for j in range(basis_b.dim):
            p = weaksim.post_selection_probability(a, basis_m, basis_b, cfg, j)
            if p <= tol:
                rows.append((p, None, None))
                continue
            closed = weaksim.conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            quad = weaksim.conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
            rows.append((p, closed, quad))
        return batch, rows

    def _gate(self, request: Request, batch, rows, outcome: Outcome) -> None:
        """Sampled statistics and quadrature against the closed form."""
        shots, dim = request.shots, len(rows)
        check(batch.readings.shape == (shots,) and batch.b_index.shape == (shots,), "batch size")
        check(int(batch.b_index.min()) >= 0 and int(batch.b_index.max()) < dim, "outcome index out of range")
        # per-outcome count, sum and sum of squared deviations from the closed-form
        # mean (shifted so that the variance keeps its digits), chunk by chunk
        shift = np.array([closed if closed is not None else 0.0 for _, closed, _ in rows])
        counts, sums, squares = np.zeros(dim), np.zeros(dim), np.zeros(dim)
        for start in range(0, shots, GATE_CHUNK):
            b = batch.b_index[start : start + GATE_CHUNK]
            x = batch.readings[start : start + GATE_CHUNK] - shift[b]
            counts += np.bincount(b, minlength=dim)
            sums += np.bincount(b, weights=x, minlength=dim)
            squares += np.bincount(b, weights=x * x, minlength=dim)
        quad_ok = True
        for j, (p, closed, quad) in enumerate(rows):
            if closed is None:
                continue
            n = counts[j]
            if p < 1.0:
                outcome.zf = max(outcome.zf, abs(n - shots * p) / math.sqrt(shots * p * (1.0 - p)))
            outcome.quad_err = max(outcome.quad_err, abs(quad - closed))
            quad_ok = quad_ok and abs(quad - closed) <= QUAD_TOL * max(1.0, abs(closed))
            if n >= MIN_MEAN_SAMPLES:
                offset = sums[j] / n  # sample mean minus the closed-form mean
                variance = (squares[j] - n * offset * offset) / (n - 1)
                check(variance > 0.0, f"readings for outcome {j} have no spread")
                outcome.zm = max(outcome.zm, abs(offset) / math.sqrt(variance / n))
        check(quad_ok, f"quadrature mean off the closed form by {outcome.quad_err:.3g}")
        check(outcome.zf <= Z_BOUND, f"outcome frequency |z| = {outcome.zf:.3g}")
        check(outcome.zm <= Z_BOUND, f"conditional mean |z| = {outcome.zm:.3g}")

    def run(self, request: Request, call) -> Outcome:
        start = perf_counter()
        try:
            batch, rows = call(self._request, request)
            error = None
        except Exception as exc:  # a request that raises is a failed request; the run goes on
            error = f"raised {exc!r}"
        outcome = Outcome("point", perf_counter() - start, error is None, known_defect=request.known_defect)
        outcome.shots, outcome.built = request.shots, request.source == "three-box"
        try:
            check(error is None, error)
            self._gate(request, batch, rows, outcome)
        except (GateError, ValueError) as exc:
            outcome.ok = False
            label = "span-heavy" if request.known_defect else f"{request.source} width={request.width:g}"
            outcome.reason = f"{label}: {exc}"[:200]
        return outcome

    def end_to_end(self, best: list[Outcome], outcomes: list[Outcome]) -> tuple[dict, dict]:
        times = [o.seconds for o in best]
        built = [o.seconds for o in best if o.built]
        metrics = {
            "latency_p50_s": quantile(times, 50),
            "latency_p90_s": quantile(times, 90),
            "configs_per_s": rate(len(times), sum(times)),
            "scenario_builds_per_s": rate(len(built), sum(built)),
            "peak_rss_mb": peak_rss_self_mb(),
        }
        return metrics, {"shots_per_s": rate(sum(o.shots for o in best), sum(times))}
