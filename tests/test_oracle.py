"""``kd_joint``, ``overlap_from_kd`` and ``PointerStatistics`` against an oracle that shares none
of numpy's arithmetic: mpmath at 50 digits.

The oracle reads each input as given, as exact binary floats, and computes the joint table
``<b|m><m|a><a|b>`` and its row and column sums from them at 50 digits. Its error is far below
one float ulp, so the difference measures the float kernel's rounding alone. Each test states its
bound, with ``u = 2**-53`` the unit roundoff:

- A table entry is a product of three complex dot products of length d over vectors of norm 1
  (up to a few u). Each dot product is off by at most ``gamma_(d+2) ~ (d + 2) u`` (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.6), and each of the two
  complex products adds at most ``sqrt(2) gamma_2 < 3 u``. An entry is therefore off by at most
  ``(3d + 12) u``; the bound below allows ``(3d + 16) u``, which leaves 4 u for second-order terms
  and for the norms.
- A marginal sums d entries whose moduli add up to at most 1, so it is off by at most d times the
  entry bound plus ``d u`` of summation error. The clip to [0, 1] moves no value farther from the
  equally clipped oracle value.
- ``overlap_from_kd`` reads the same float column ``T[:, b]``, the spectrum's reduced phases and
  the float ``P(b)``; the oracle forms ``|sum_m T[m,b] e^{-i phase(m)}|^2 / P(b)`` from them. Each
  factor is off by at most 2 u (one ulp in each of cos and sin), each complex product adds at most
  3 u of ``|T[m,b]|``, and the sum adds ``(d - 1) u`` of ``S = sum_m |T[m,b]|``: the amplitude is
  off by ``(d + 4) u S``, and ``abs`` by 2 u more. Squaring doubles that against ``|A| S <= S^2``,
  and the square and the division add 3 u. So the overlap is off by at most ``(2d + 15) u O*_b``,
  where ``O*_b = S^2 / P(b)`` bounds the overlap itself; the bound below allows ``(2d + 20) u O*_b``.
- ``PointerStatistics`` is held to 1e-10 relative in P(b) and in the mean. Near orthogonal
  post-selection it does not meet that yet (ROADMAP item 8); the case is pinned as a strict xfail.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import kdqlab.scenarios
from helpers import haar_basis, random_state
from kdqlab import (
    SCENARIO_NAMES,
    TOL,
    ActionSpectrum,
    OrthonormalBasis,
    PointerConfig,
    PointerStatistics,
    StateVector,
    build,
    complete_basis,
    kd_joint,
    overlap_from_kd,
    post_selection_basis,
)

mpmath = pytest.importorskip("mpmath")

U = 2.0**-53
DIGITS = 50


def entry_bound(dim):
    return (3 * dim + 16) * U


def marginal_bound(dim):
    return dim * entry_bound(dim) + dim * U


def oracle(dist):
    """The exact table of ``dist``'s inputs to 50 digits, with its real row and column sums clipped to [0, 1]."""
    with mpmath.workdps(DIGITS):
        a = [mpmath.mpc(complex(z)) for z in dist.state_a.amp]
        m = [[mpmath.mpc(complex(z)) for z in row] for row in dist.basis_m.matrix]
        b = [[mpmath.mpc(complex(z)) for z in row] for row in dist.basis_b.matrix]

        def braket(u, v):
            return mpmath.fsum(mpmath.conj(x) * y for x, y in zip(u, v))

        ma = [braket(row, a) for row in m]
        ab = [braket(a, row) for row in b]
        table = [[braket(bj, mi) * ma[i] * ab[j] for j, bj in enumerate(b)] for i, mi in enumerate(m)]
        rows = [mpmath.fsum(row).real for row in table]
        cols = [mpmath.fsum(col).real for col in zip(*table)]
        return table, [min(max(p, 0), 1) for p in rows], [min(max(p, 0), 1) for p in cols]


def max_errors(dist):
    """The largest error of ``dist``'s table entries and of its marginals against the oracle."""
    table, prob_m, prob_b = oracle(dist)
    with mpmath.workdps(DIGITS):
        exact = [t for row in table for t in row]
        entries = max(abs(mpmath.mpc(z) - t) for z, t in zip(dist.table.ravel().tolist(), exact))
        got = [*dist.prob_m.tolist(), *dist.prob_b.tolist()]
        marginals = max(abs(mpmath.mpf(p) - q) for p, q in zip(got, prob_m + prob_b))
        return float(entries), float(marginals)


def assert_within_bounds(dist):
    entries, marginals = max_errors(dist)
    assert entries <= entry_bound(dist.dim)
    assert marginals <= marginal_bound(dist.dim)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_tables_against_the_oracle(name):
    assert_within_bounds(build(name).kd)


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_haar_tables_against_the_oracle(dim, seed):
    rng = np.random.default_rng(1000 * dim + seed)
    assert_within_bounds(kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")))


def test_the_oracle_sees_a_moved_entry():
    # the comparison is live: an entry moved by 1e-14, above the bound, shows as an error of that size
    dist = build("three-box").kd
    table = dist.table.copy()
    table[0, 0] += 1e-14
    entries, _ = max_errors(type(dist)(dist.state_a, dist.basis_m, dist.basis_b, table))
    assert abs(entries - 1e-14) <= entry_bound(dist.dim)


def overlap_error(dist, spectrum, b):
    """``overlap_from_kd``'s error at column b against the 50-digit value, and its bound ``(2d + 20) u O*_b``."""
    column, p_b = dist.table[:, b].tolist(), float(dist.prob_b[b])
    with mpmath.workdps(DIGITS):
        terms = [mpmath.mpc(t) * mpmath.expj(-mpmath.mpf(phi)) for t, phi in zip(column, spectrum.phase)]
        exact = abs(mpmath.fsum(terms)) ** 2 / mpmath.mpf(p_b)
        error = float(abs(mpmath.mpf(overlap_from_kd(dist, spectrum, b)) - exact))
    o_star = sum(map(abs, column)) ** 2 / p_b
    return error, (2 * dist.dim + 20) * U * o_star


def assert_overlaps_within_bound(dist, spectrum):
    """Every column with ``P(b|a) > TOL``, where the overlap identity is defined."""
    for b in np.flatnonzero(dist.prob_b > TOL).tolist():
        error, bound = overlap_error(dist, spectrum, b)
        assert error <= bound, (b, error, bound)


def declared_transformation(name, monkeypatch):
    """The scenario's joint table and the one ``Transformation`` its builder declares."""
    made, original = [], kdqlab.scenarios.Transformation

    def record(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(kdqlab.scenarios, "Transformation", record)
    report = build(name)
    (transform,) = made
    return report.kd, transform.spectrum


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_overlaps_against_the_oracle(name, monkeypatch):
    assert_overlaps_within_bound(*declared_transformation(name, monkeypatch))


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_haar_overlaps_against_the_oracle(dim, seed):
    rng = np.random.default_rng(2000 * dim + seed)
    dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
    assert_overlaps_within_bound(dist, ActionSpectrum(dist.basis_m, tuple(rng.uniform(-np.pi, np.pi, dim))))


def test_the_overlap_oracle_sees_a_moved_factor(monkeypatch):
    # three-box, column b: T = (1, 1, -1) / 9, factors (1, 1, -1), P(b) = 1/9 and O*_b = 1. Moving
    # the first factor by 1e-14 moves the overlap by 2 (1/3) (1/9) 1e-14 / (1/9) = 6.7e-15, above
    # the bound of 26 u = 2.9e-15
    dist, spectrum = declared_transformation("three-box", monkeypatch)
    factor = spectrum.factor.copy()
    factor[0] += 1e-14
    error, bound = overlap_error(dist, SimpleNamespace(basis=spectrum.basis, phase=spectrum.phase, factor=factor), 0)
    assert error > bound
    assert abs(error - 2e-14 / 3) <= bound


def pointer_oracle(a, basis_m, basis_b, cfg, b_index):
    """``PointerStatistics``' probability and mean of outcome ``b_index`` at 50 digits, from the same float inputs.

    ``p = sum_nm c*_n K_nm c_m`` and ``mean = g sum_nm c*_n K_nm (k_n + k_m) / 2 c_m / p``, with
    ``c_m = <b|m><m|a>`` and ``K_nm = exp(-(g (k_n - k_m) / width)**2 / 8)``.
    """
    with mpmath.workdps(DIGITS):
        amp = [mpmath.mpc(complex(z)) for z in a.amp]
        b = [mpmath.mpc(complex(z)) for z in basis_b.matrix[b_index]]
        c = []
        for row in basis_m.matrix.tolist():
            m = [mpmath.mpc(z) for z in row]
            c.append(
                mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b, m))
                * mpmath.fsum(mpmath.conj(x) * y for x, y in zip(m, amp))
            )
        g, width = mpmath.mpf(cfg.coupling), mpmath.mpf(cfg.width)
        kappa = [mpmath.mpf(k) for k in cfg.eigenvalue]
        pairs = [(n, m) for n in range(len(c)) for m in range(len(c))]
        weight = {
            (n, m): mpmath.conj(c[n]) * mpmath.exp(-((g * (kappa[n] - kappa[m]) / width) ** 2) / 8) * c[m]
            for n, m in pairs
        }
        p = mpmath.fsum(weight.values()).real
        moment = mpmath.fsum(weight[n, m] * (kappa[n] + kappa[m]) / 2 for n, m in pairs).real
        return p, g * moment / p


def assert_pointer_statistics_match_the_oracle(a, basis_m, basis_b, cfg, b_index):
    stats = PointerStatistics(a, basis_m, basis_b, cfg)
    p, mean = pointer_oracle(a, basis_m, basis_b, cfg, b_index)
    with mpmath.workdps(DIGITS):
        assert abs(stats.probability[b_index] - p) <= 1e-10 * abs(p)
        assert abs(stats.mean[b_index] - mean) <= 1e-10 * abs(mean)


@pytest.mark.parametrize("width", [0.3, 1.0, 50.0])
def test_pointer_statistics_of_three_box_against_the_oracle(width):
    # no cancellation here: P(b) is about 1/9, and both values agree within a few u
    a, b = StateVector.normalize([1.0, 1.0, 1.0]), StateVector.normalize([1.0, 1.0, -1.0])
    basis_b = post_selection_basis(a, b, ("b", "rest", "null"))
    cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=(0.0, 0.0, 1.0))
    assert_pointer_statistics_match_the_oracle(a, OrthonormalBasis.standard(3), basis_b, cfg, 0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: the closed form cancels terms of about 0.1 down to P(b) ~ 1e-10 and loses 7 digits",
)
def test_pointer_statistics_near_orthogonal_post_selection():
    a = StateVector.normalize(np.ones(3))
    b0 = StateVector.normalize(np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0) + 1e-5 * a.amp)
    basis_b = complete_basis([b0], ("b0", "b1", "b2"))
    cfg = PointerConfig(coupling=1.0, width=1e6, eigenvalue=(0.0, 1.0, 2.0))
    # P(b0) = 1.0004e-10, just above TOL: today both values are off by 1.3e-7 relative
    assert_pointer_statistics_match_the_oracle(a, OrthonormalBasis.standard(3), basis_b, cfg, 0)
