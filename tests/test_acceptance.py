"""Acceptance suite: one machine-checked criterion per test, one line of output each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines on the terminal.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from helpers import entry, haar_basis, pointer_joint_density, random_state
from kdqlab import (
    ActionSpectrum,
    OrthonormalBasis,
    PointerConfig,
    StateVector,
    bell_scenario,
    cheshire_cat,
    conditional_pointer_mean,
    conditional_pointer_mean_quadrature,
    hardy,
    inner,
    kd_joint,
    leggett_garg,
    marginals,
    overlap_direct,
    overlap_from_kd,
    peres_mermin_swap,
    post_selection_basis,
    projector,
    reconstruct_state,
    sample,
    three_box,
    unitary_from_actions,
)

TOL = 1e-10


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        print(f"[FAIL] {name}: {exc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"[FAIL] {name}: runtime {elapsed:.2f} s exceeds {budget_seconds:.0f} s")
        raise AssertionError(f"{name}: runtime {elapsed:.2f} s over budget {budget_seconds:.0f} s")
    print(f"[PASS] {name}  ({elapsed:.2f} s)")


def test_criterion_1_leggett_garg():
    with criterion("1. Leggett-Garg: -1/8 at cos=1/2, route agreement, negativity range", 1.0):
        report = leggett_garg(math.pi / 3)
        assert abs(entry(report.kd, "-1", "+1").real - (-0.125)) <= TOL

        route_names = (
            "joint probability via expectation values",
            "joint probability via transformation overlap",
            "joint probability equals Re of the joint table entry",
        )
        rng = np.random.default_rng(424242)
        for theta in rng.uniform(1e-3, math.pi - 1e-3, 50):
            rep = leggett_garg(float(theta))
            routes = [complex(c.got).real for c in rep.checks if c.name in route_names]
            routes.append(0.5 * math.cos(theta) * (math.cos(theta) - 1.0))
            assert max(routes) - min(routes) <= TOL, f"routes disagree at theta={theta}"
            negative = entry(rep.kd, "-1", "+1").real < -TOL
            assert negative == (theta < math.pi / 2), f"negativity mismatch at theta={theta}"


def test_criterion_2_three_box():
    with criterion("2. Three-box: column (1/9, 1/9, -1/9), P(b|a)=1/9, overlap 1", 1.0):
        report = three_box()
        assert abs(entry(report.kd, "1", "b") - 1.0 / 9.0) <= TOL
        assert abs(entry(report.kd, "2", "b") - 1.0 / 9.0) <= TOL
        assert abs(entry(report.kd, "3", "b") - (-1.0 / 9.0)) <= TOL
        _, prob_b = marginals(report.kd)
        assert abs(prob_b[0] - 1.0 / 9.0) <= TOL
        spectrum = ActionSpectrum(report.kd.basis_m, (0.0, 0.0, math.pi))
        assert abs(overlap_from_kd(report.kd, spectrum, 0) - 1.0) <= TOL
        assert report.passed


def test_criterion_3_cheshire_cat():
    with criterion("3. Cheshire cat: eighths, path weight 0, smile weight 1", 1.0):
        report = cheshire_cat()
        for label, value in (("p1H", 0.125), ("p1V", 0.125), ("p2H", 0.125), ("p2V", -0.125)):
            assert abs(entry(report.kd, label, "b") - value) <= TOL
        _, prob_b = marginals(report.kd)
        column = report.kd.table[:, 0]
        path2 = float((column[2] + column[3]).real) / float(prob_b[0])
        smile2 = float((column[2] - column[3]).real) / float(prob_b[0])
        assert abs(path2 - 0.0) <= TOL
        assert abs(smile2 - 1.0) <= TOL
        assert report.passed


def test_criterion_4_hardy():
    with criterion("4. Hardy: 1/12, twelfths, zero sums, 3/4 overlap, -1/4 relation", 1.0):
        report = hardy()
        dist = report.kd
        j = dist.basis_b.labels.index("b1b2")
        _, prob_b = marginals(dist)
        assert abs(prob_b[j] - 1.0 / 12.0) <= TOL
        expected = {"O1O2": -1.0 / 12.0, "O1I2": 1.0 / 12.0, "I1O2": 1.0 / 12.0, "I1I2": 0.0}
        for label, value in expected.items():
            assert abs(entry(dist, label, "b1b2") - value) <= TOL
        assert abs(entry(dist, "O1O2", "b1b2") + entry(dist, "O1I2", "b1b2")) <= TOL
        assert abs(entry(dist, "O1O2", "b1b2") + entry(dist, "I1O2", "b1b2")) <= TOL
        spectrum = ActionSpectrum(dist.basis_m, (0.0, math.pi, math.pi, 0.0))
        unitary = unitary_from_actions(spectrum)
        p_after = overlap_direct(dist.state_a, dist.basis_b.vectors[j], unitary)
        assert abs(p_after - 0.75) <= TOL
        signed = complex(np.sum(dist.table[:, j] * np.exp(-1j * np.asarray(spectrum.phase))))
        assert abs(signed - (-math.sqrt(prob_b[j] * p_after))) <= TOL
        assert abs(signed - (-0.25)) <= TOL
        assert report.passed


def test_criterion_5_contextuality():
    with criterion("5. Contextuality: (-1/8, 1/8, 1/8, 1/8) and both product relations", 1.0):
        report = peres_mermin_swap()
        assert abs(entry(report.kd, "S", "(+1 +1)") - (-0.125)) <= TOL
        for label in ("Tx", "Ty", "Tz"):
            assert abs(entry(report.kd, label, "(+1 +1)") - 0.125) <= TOL
        by_name = {c.name: c for c in report.checks}
        assert complex(by_name["(X1X2)(Y1Y2) = -(Z1Z2) on all four swap eigenvectors"].got).real <= TOL
        assert complex(by_name["(X1Y2)(Y1X2) = Z1Z2 on all eight product-context states"].got).real <= TOL
        assert report.passed


def test_criterion_6_bell_chsh():
    with criterion("6. Bell/CHSH: table at five angles, P(K=-2) law, <K> = 2 sqrt(2)", 1.0):
        for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            report = bell_scenario(theta)
            got = {c.name: c.got for c in report.checks}
            assert got["joint table matches the closed-form table"] <= TOL, f"table error at theta={theta}"
            assert float(np.max(np.abs(report.kd.table.imag))) <= TOL
            target = 0.5 * (1.0 - math.sin(theta) - math.cos(theta))
            assert abs(got["P(K=-2) = (1 - sin - cos) / 2"] - target) <= TOL
        quarter = {c.name: c.got for c in bell_scenario(math.pi / 4).checks}
        assert abs(quarter["<K> = 2 (sin + cos)"] - 2.0 * math.sqrt(2.0)) <= TOL


def test_criterion_7_engine_identities():
    with criterion("7. Engine identities: 1000 randomized trials per law at d in {2,3,4}", 30.0):
        rng = np.random.default_rng(20240808)
        for dim in (2, 3, 4):
            for _ in range(1000):
                a = random_state(rng, dim)
                basis_m = haar_basis(rng, dim, "m")
                basis_b = haar_basis(rng, dim, "b")
                dist = kd_joint(a, basis_m, basis_b)
                table = dist.table

                # normalization and marginal identities
                assert abs(complex(table.sum()) - 1.0) <= TOL
                born_m = np.abs(basis_m.matrix.conj() @ a.amp) ** 2
                born_b = np.abs(basis_b.matrix.conj() @ a.amp) ** 2
                assert float(np.max(np.abs(table.sum(axis=1) - born_m))) <= TOL
                assert float(np.max(np.abs(table.sum(axis=0) - born_b))) <= TOL

                # transformed-overlap identity, on the best-populated column
                j = int(np.argmax(born_b))
                spectrum = ActionSpectrum(basis_m, tuple(rng.uniform(-math.pi, math.pi, dim)))
                direct = overlap_direct(a, basis_b.vectors[j], unitary_from_actions(spectrum))
                assert abs(overlap_from_kd(dist, spectrum, j) - direct) <= 1e-9

                # phase compensation is optimal and saturates the triangle bound
                column = table[:, j]
                best = tuple(float(np.angle(z)) if abs(z) > TOL else 0.0 for z in column)
                optimum = overlap_from_kd(dist, ActionSpectrum(basis_m, best), j)
                bound = float(np.sum(np.abs(column))) ** 2 / float(born_b[j])
                assert abs(optimum - bound) <= 1e-9
                other = ActionSpectrum(basis_m, tuple(rng.uniform(-math.pi, math.pi, dim)))
                assert overlap_from_kd(dist, other, j) <= optimum + 1e-9

                # sign/phase law for significant entries
                significant = np.abs(table) > TOL
                negatives = table.real < 0.0
                large_phase = np.abs(np.angle(table)) > math.pi / 2
                assert np.array_equal(negatives[significant], large_phase[significant])

                # reconstruction round trip
                rho = reconstruct_state(dist)
                assert float(np.max(np.abs(rho.mat - projector(a).mat))) <= 1e-9


def _three_box_pointer_setup():
    basis_m = OrthonormalBasis.standard(3, ("1", "2", "3"))
    a = StateVector.normalize([1.0, 1.0, 1.0])
    b = StateVector.normalize([1.0, 1.0, -1.0])
    basis_b = post_selection_basis(a, b, ("b", "rest", "null"))
    return a, basis_m, basis_b


def test_criterion_8_weak_measurement_convergence():
    with criterion("8. Pointer model: weak readout of -g, Monte Carlo, strong limit", 60.0):
        a, basis_m, basis_b = _three_box_pointer_setup()

        # weak regime: conditional mean reads out the -1 weak value
        cfg = PointerConfig(coupling=1.0, width=50.0, eigenvalue=(0.0, 0.0, 1.0))
        closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)
        assert abs(closed - (-cfg.coupling)) < 1e-3 * cfg.coupling
        quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, 0)
        assert abs(closed - quad) < 1e-8

        # Monte Carlo agreement at one million shots
        batch = sample(a, basis_m, basis_b, cfg, 10**6, 42)
        selected = batch.readings[batch.b_index == 0]
        stderr = float(selected.std(ddof=1)) / math.sqrt(selected.size)
        assert abs(float(selected.mean()) - closed) <= 4.0 * stderr

        # strong regime: projective statistics, per distinct eigenvalue
        strong = PointerConfig(coupling=1.0, width=0.01, eigenvalue=(-1.0, 0.0, 1.0))
        strong_batch = sample(a, basis_m, basis_b, strong, 200000, 42)
        chosen = strong_batch.readings[strong_batch.b_index == 0]
        weights = np.array(
            [
                abs(inner(basis_b.vectors[0], basis_m.vectors[m]) * inner(basis_m.vectors[m], a)) ** 2
                for m in range(3)
            ]
        )
        weights /= weights.sum()
        for m, center in enumerate((-1.0, 0.0, 1.0)):
            cluster = float(np.mean(np.abs(chosen - center) < 4.0 * strong.width))
            assert abs(cluster - weights[m]) <= 1e-2

        # the sampled density is an ordinary non-negative density even though
        # the underlying joint table entry for box 3 is negative
        dist = kd_joint(a, basis_m, basis_b)
        assert dist.table[2, 0].real < -TOL
        xs = np.linspace(-5.0, 6.0, 4001)
        for config in (cfg, strong):
            density = pointer_joint_density(a, basis_m, basis_b, config, xs, 0)
            assert float(np.min(density)) >= 0.0
