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
- ``overlap_from_kd`` reads the same float column ``T[:, b]``, the declared float phases and the
  float ``P(b)``; the oracle forms ``|sum_m T[m,b] e^{-i phase(m)}|^2 / P(b)`` from them. Each
  factor is off by at most 2 u (one ulp in each of cos and sin, at any magnitude of the phase:
  the spectrum keeps the float it was given and folds nothing), each complex product adds at most
  3 u of ``|T[m,b]|``, and the sum adds ``(d - 1) u`` of ``S = sum_m |T[m,b]|``: the amplitude is
  off by ``(d + 4) u S``, and ``abs`` by 2 u more. Squaring doubles that against ``|A| S <= S^2``,
  and the square and the division add 3 u. So the overlap is off by at most ``(2d + 15) u O*_b``,
  where ``O*_b = S^2 / P(b)`` bounds the overlap itself; the bound below allows ``(2d + 20) u O*_b``.
- ``PointerStatistics`` reads float coefficients ``c_m = <b|m><m|a>``, two complex dot products of
  unit vectors and one product, so each is off by at most ``delta = (2d + 8) u`` and the vector c
  by ``sqrt(d) delta``. P(b) is ``c† K c`` with K positive semidefinite and ``||K|| <= d``, so
  ``||K c|| <= sqrt(d P(b))`` and the coefficients move P(b) by at most ``2 d delta sqrt(P(b))``:
  ``F = 2 d (2d + 8) u / sqrt(P(b))`` relative. The moment is ``c† (K∘H) c`` with
  ``K∘H = (diag(k) K + K diag(k)) / 2``; as ``0 < K_nm <= 1``,
  ``||(K∘H) c|| <= max|k| sqrt(d) (sqrt(P(b)) + S) / 2`` with ``S = sum_m |c_m|``. So the mean
  ``g num / P(b)`` moves by at most ``F (|mean| + g max|k| (1 + S / sqrt(P(b))))``. Both are
  first-order bounds on the rounding of the inputs, the floor for any formula on the float
  coefficients; at dimension 8 and ``P(b) = 2 TOL``, F is 3e-9. The rounding of the clusters' sums
  of squares comes on top. It is measured, not proved, to stay inside them where b is nearly
  orthogonal to a, and where b lies near a null direction of K itself, with several centers a few
  widths apart: over this module's cases, one such input among them, the largest errors read 0.05
  (P) and 0.01 (mean) of the bounds. The three-box and pinned near-orthogonal cases are also held
  to 1e-10 relative, as before.
- ``conditional_pointer_mean_quadrature`` on the pinned near-orthogonal input is held to 1e-9
  relative of the 50-digit mean: its error estimate stays below 1e-8 there.
- ``reconstruct_state`` reads the float table and bases. ``<b|m>`` is a complex dot product of unit
  vectors, off by at most ``(d + 2) u``; the division ``C = T / <b|m>`` adds ``6 u`` of ``|C|``;
  the two matrix products ``M^T C`` and ``(M^T C) B*`` add ``(d + 2) u`` each of the sums of
  moduli. So entry (i, j) is off by at most
  ``sum_{m,b} |M_mi| |C_mb| |B_bj| ((d + 2) u / |<b|m>| + (2d + 10) u)``; the bound below allows
  ``(d + 4) u / |<b|m>| + (2d + 16) u`` for second-order terms.
- The sampler's conditional draw of b, near the same null direction of K, is checked by its counts
  against ``PointerStatistics`` (|z| <= 6 at 2e6 shots), not against mpmath: its rounding moves each
  shot's conditional probability by far less than one shot in ``MAX_SHOTS`` (``_chunks``' docstring).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

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
    conditional_pointer_mean_quadrature,
    kd_joint,
    overlap_from_kd,
    post_selection_basis,
    reconstruct_state,
    sample_moments,
)

mpmath = pytest.importorskip("mpmath")

U = 2.0**-53
DIGITS = 50
STANDARD_3 = OrthonormalBasis.standard(3, ("0", "1", "2"))  # the m basis of the dim-3 pointer cases


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


def overlap_error(dist, spectrum, b, declared=None):
    """``overlap_from_kd``'s error at column b against the 50-digit value, and its bound ``(2d + 20) u O*_b``.

    The oracle reads ``declared``, the phases as the caller gave them, or else ``spectrum.phase``.
    """
    column, p_b = dist.table[:, b].tolist(), float(dist.prob_b[b])
    phases = spectrum.phase if declared is None else declared
    with mpmath.workdps(DIGITS):
        terms = [mpmath.mpc(t) * mpmath.expj(-mpmath.mpf(phi)) for t, phi in zip(column, phases)]
        exact = abs(mpmath.fsum(terms)) ** 2 / mpmath.mpf(p_b)
        error = float(abs(mpmath.mpf(overlap_from_kd(dist, spectrum, b)) - exact))
    o_star = sum(map(abs, column)) ** 2 / p_b
    return error, (2 * dist.dim + 20) * U * o_star


def assert_overlaps_within_bound(dist, spectrum, declared=None):
    """Every column with ``P(b|a) > TOL``, where the overlap identity is defined."""
    for b in np.flatnonzero(dist.prob_b > TOL).tolist():
        error, bound = overlap_error(dist, spectrum, b, declared)
        assert error <= bound, (b, error, bound)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_overlaps_against_the_oracle(name):
    report = build(name)
    assert_overlaps_within_bound(report.kd, report.transform.spectrum)


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_haar_overlaps_against_the_oracle(dim, seed):
    rng = np.random.default_rng(2000 * dim + seed)
    dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
    assert_overlaps_within_bound(dist, ActionSpectrum(dist.basis_m, tuple(rng.uniform(-np.pi, np.pi, dim))))


@pytest.mark.parametrize("scale", [1e4, 1e8, 1e12, 1e15])
@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(4))
def test_haar_overlaps_at_large_phases_against_the_oracle(dim, seed, scale):
    # the phases of test_haar_overlaps_against_the_oracle (scale 1) times scale. The oracle reads the
    # declared floats: a factor taken from a phase folded modulo the float 2 pi is off by about
    # u |phase|, past the bound from scale 1e4 on
    rng = np.random.default_rng(2000 * dim + seed)
    dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
    phases = tuple((scale * rng.uniform(-np.pi, np.pi, dim)).tolist())
    assert_overlaps_within_bound(dist, ActionSpectrum(dist.basis_m, phases), phases)


def test_the_overlap_oracle_sees_a_moved_factor():
    # three-box, column b: T = (1, 1, -1) / 9, factors (1, 1, -1), P(b) = 1/9 and O*_b = 1. Moving
    # the first factor by 1e-14 moves the overlap by 2 (1/3) (1/9) 1e-14 / (1/9) = 6.7e-15, above
    # the bound of 26 u = 2.9e-15
    report = build("three-box")
    dist, spectrum = report.kd, report.transform.spectrum
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
    assert_pointer_statistics_match_the_oracle(a, STANDARD_3, basis_b, cfg, 0)


def pinned_near_orthogonal_input():
    """ROADMAP item 8's input: ``P(b0) = 1.0004e-10`` at width 1e6, just above TOL."""
    a = StateVector.normalize(np.ones(3))
    b0 = StateVector.normalize(np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0) + 1e-5 * a.amp)
    return a, STANDARD_3, complete_basis([b0], ("b0", "b1", "b2"))


def test_pointer_statistics_near_orthogonal_post_selection():
    # the sum c† K c cancels terms of about 0.1 down to 1e-10; the cluster split avoids that
    a, basis_m, basis_b = pinned_near_orthogonal_input()
    cfg = PointerConfig(coupling=1.0, width=1e6, eigenvalue=(0.0, 1.0, 2.0))
    assert_pointer_statistics_match_the_oracle(a, basis_m, basis_b, cfg, 0)


def pointer_bound(dim, p):
    """The relative factor ``F = 2 d (2d + 8) u / sqrt(P(b))`` of the module docstring."""
    return 2 * dim * (2 * dim + 8) * U / math.sqrt(p)


def assert_pointer_statistics_within_bound(a, basis_m, basis_b, cfg):
    """Every outcome's P(b), and its mean where there is one, within the module docstring's bounds."""
    stats = PointerStatistics(a, basis_m, basis_b, cfg)
    rows = (basis_b.matrix.conj() @ basis_m.matrix.T) * (basis_m.matrix.conj() @ a.amp)
    top = cfg.coupling * max(map(abs, cfg.eigenvalue))
    for j, (got_p, got_mean) in enumerate(zip(stats.probability, stats.mean)):
        p, mean = pointer_oracle(a, basis_m, basis_b, cfg, j)
        if p <= TOL / 2:  # a dead outcome, such as three-box's null direction: the bound divides by sqrt(P(b))
            continue
        bound = pointer_bound(a.dim, float(p))
        with mpmath.workdps(DIGITS):
            assert abs(got_p - p) <= bound * p, (j, float(p))
            assert (got_mean is None) == (got_p <= TOL)
            if got_mean is not None:
                scale = abs(mean) + top * (1.0 + float(np.abs(rows[j]).sum()) / math.sqrt(float(p)))
                assert abs(got_mean - mean) <= bound * scale, (j, float(p))


def near_orthogonal_basis(rng, a, level):
    """A basis whose first vector is a random direction orthogonal to a, plus ``sqrt(level) a``."""
    v = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    v -= (a.amp.conj() @ v) * a.amp
    b0 = StateVector.normalize(v / np.linalg.norm(v) + math.sqrt(level) * a.amp)
    return complete_basis([b0], tuple(f"b{k}" for k in range(a.dim)))


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("width", [1e-150, 1e-100, 1e-12, 1e-3, 1.0, 1e3, 1e6, 1e12])
def test_pointer_statistics_near_orthogonal_against_the_oracle(dim, width):
    # P(b0) ~ level in the weak limit: the spread of 0.01 widths puts every center in one cluster,
    # 4 widths makes clusters and cross terms, and eigenvalues in -2..2 unscaled reach the narrow regime
    rng = np.random.default_rng(3000 * dim + int(math.log10(width)) + 3)
    a, basis_m = random_state(rng, dim), haar_basis(rng, dim, "m")
    for spread in (0.01 * width, 4.0 * width, 2.0):
        cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=tuple(spread * rng.uniform(-1.0, 1.0, dim)))
        for level in (1.0, 1e-4, 1e-8, 2 * TOL):
            assert_pointer_statistics_within_bound(a, basis_m, near_orthogonal_basis(rng, a, level), cfg)


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("smallest", [1e-9, 1e-10, 2e-10])
def test_pointer_statistics_with_a_tiny_overlap_against_the_oracle(dim, smallest):
    # b0 has the amplitude `smallest` on one m, so that coefficient <b0|m><m|a> nears TOL or falls below it
    rng = np.random.default_rng(4000 * dim + round(-math.log10(smallest) * 10))
    a, basis_m = random_state(rng, dim), haar_basis(rng, dim, "m")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z *= math.sqrt(1.0 - smallest**2) / np.linalg.norm(z[1:])
    z[0] = smallest * z[0] / abs(z[0])
    b0 = StateVector(basis_m.matrix.T @ z)  # <m|b0> = z_m
    basis_b = complete_basis([b0], tuple(f"b{k}" for k in range(dim)))
    assert abs(basis_m.matrix[0].conj() @ b0.amp) == pytest.approx(smallest, rel=1e-5)
    for width in (1.0, 1e3):
        for spread in (0.01 * width, 4.0 * width, 2.0):
            cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=tuple(spread * rng.uniform(-1.0, 1.0, dim)))
            assert_pointer_statistics_within_bound(a, basis_m, basis_b, cfg)


def null_direction_input(seed, eps):
    """ROADMAP item 8's open case: dim 8, width 1, eigenvalues uniform in -2..2, and b0 built so that
    ``c = (<b0|m><m|a>)_m`` is proportional to ``w = v_min(K) + eps v_max(K)``, near a null direction
    of the kernel K itself: ``<b0|m>`` is proportional to ``w_m / <m|a>``."""
    rng = np.random.default_rng(seed)
    a, basis_m = random_state(rng, 8), haar_basis(rng, 8, "m")
    cfg = PointerConfig(coupling=1.0, width=1.0, eigenvalue=tuple(rng.uniform(-2.0, 2.0, 8).tolist()))
    kappa = np.asarray(cfg.eigenvalue)
    _, vectors = np.linalg.eigh(np.exp(-((kappa[:, None] - kappa) ** 2) / 8))
    w = vectors[:, 0] + eps * vectors[:, -1]
    b0 = StateVector.normalize(basis_m.matrix.T @ np.conj(w / (basis_m.matrix.conj() @ a.amp)))
    return a, basis_m, complete_basis([b0], tuple(f"b{k}" for k in range(8))), cfg


def test_pointer_statistics_near_a_null_direction_of_the_kernel():
    # seed 11 and eps 2e-5 give P(b0) = 2.3e-10; squaring each cluster's coefficient sum read it 5.8 F off
    # the 50-digit value, since K's own terms cancel there, and the sum of squares reads it inside F
    a, basis_m, basis_b, cfg = null_direction_input(seed=11, eps=2e-5)
    p, _ = pointer_oracle(a, basis_m, basis_b, cfg, 0)
    got = PointerStatistics(a, basis_m, basis_b, cfg).probability[0]
    with mpmath.workdps(DIGITS):
        assert p > TOL and abs(got - p) <= pointer_bound(8, float(p)) * p


@pytest.mark.parametrize("eps", [2e-5, 1e-4])
def test_pointer_mean_near_a_null_direction_of_the_kernel(eps):
    # P(b0) = 2.3e-10 and 5.5e-9; the closed-form mean reads 3.1e-8 and 2.8e-8 of the docstring bound
    # F (|mean| + g max|k| (1 + sum |c| / sqrt(P(b)))) off the 50-digit value
    a, basis_m, basis_b, cfg = null_direction_input(seed=11, eps=eps)
    stats = PointerStatistics(a, basis_m, basis_b, cfg)
    assert [mean is None for mean in stats.mean] == [p <= TOL for p in stats.probability]
    p, mean = pointer_oracle(a, basis_m, basis_b, cfg, 0)
    coefficients = (basis_b.matrix[0].conj() @ basis_m.matrix.T) * (basis_m.matrix.conj() @ a.amp)
    top = cfg.coupling * max(map(abs, cfg.eigenvalue))
    scale = abs(mean) + top * (1.0 + float(np.abs(coefficients).sum()) / math.sqrt(float(p)))
    with mpmath.workdps(DIGITS):
        assert p > TOL and abs(stats.mean[0] - mean) <= pointer_bound(8, float(p)) * scale


def test_sampled_counts_near_a_null_direction_of_the_kernel():
    # ROADMAP item 8: the sampler's conditional draw of b has no sum of squares, and needs none (see _chunks'
    # docstring). At eps 1e-2, P(b0) = 5.5e-5: 2e6 shots expect 111 of b0, and every count lies within
    # |z| <= 6 of the closed form
    a, basis_m, basis_b, cfg = null_direction_input(seed=11, eps=1e-2)
    probability = np.array(PointerStatistics(a, basis_m, basis_b, cfg).probability)
    assert 5e-5 < probability[0] < 6e-5
    shots = 2_000_000
    count = np.array(sample_moments(a, basis_m, basis_b, cfg, shots, seed=11)[0])
    z = (count - shots * probability) / np.sqrt(shots * probability * (1.0 - probability))
    assert count.sum() == shots and float(abs(z).max()) <= 6.0


@pytest.mark.parametrize(
    "coupling, eigenvalue",
    [(1e-300, (0.0, 0.0, 1e300)), (1e-300, (0.0, 1.5e308, 1.5e308))],
    ids=["coupling-tiny", "kappa-huge"],
)
def test_pointer_statistics_of_overflow_pointers_against_the_oracle(coupling, eigenvalue):
    # coupling**2 underflows and the spread overflows when squared alone; k_n + k_m overflows in the second
    cfg = PointerConfig(coupling=coupling, width=1.0, eigenvalue=eigenvalue)
    a, b = StateVector.normalize([1.0, 1.0, 1.0]), StateVector.normalize([1.0, 1.0, -1.0])
    assert_pointer_statistics_within_bound(a, STANDARD_3, post_selection_basis(a, b, ("b", "r", "n")), cfg)
    rng = np.random.default_rng(17)
    for level in (1e-4, 1e-8, 2 * TOL):
        assert_pointer_statistics_within_bound(a, STANDARD_3, near_orthogonal_basis(rng, a, level), cfg)


@pytest.mark.parametrize("width", [1.0, 1e3, 1e6])
def test_quadrature_near_orthogonal_post_selection(width):
    a, basis_m, basis_b = pinned_near_orthogonal_input()
    cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=(0.0, 1.0, 2.0))
    _, mean = pointer_oracle(a, basis_m, basis_b, cfg, 0)
    quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, 0)
    with mpmath.workdps(DIGITS):
        assert abs(quad - mean) <= 1e-9 * abs(mean)


def reconstruction_bound(dist):
    """Entry (i, j): ``sum_{m,b} |M_mi| |C_mb| |B_bj| ((d + 4) u / |<b|m>| + (2d + 16) u)``."""
    m_mat, b_mat = dist.basis_m.matrix, dist.basis_b.matrix
    overlap = np.abs(b_mat.conj() @ m_mat.T).T  # [m, b] = |<b|m>|
    factor = (dist.dim + 4) * U / overlap + (2 * dist.dim + 16) * U
    return np.abs(m_mat.T) @ (np.abs(dist.table) / overlap * factor) @ np.abs(b_mat)


def reconstruction_error(dist, mat):
    """The largest ratio of ``mat``'s entry errors against the 50-digit reconstruction to ``reconstruction_bound``."""
    table, m_mat, b_mat, dim = dist.table.tolist(), dist.basis_m.matrix, dist.basis_b.matrix, dist.dim
    bound = reconstruction_bound(dist)
    with mpmath.workdps(DIGITS):
        m = [[mpmath.mpc(z) for z in row] for row in m_mat.tolist()]
        b = [[mpmath.mpc(z) for z in row] for row in b_mat.tolist()]
        c = [
            [mpmath.mpc(table[i][j]) / mpmath.fsum(mpmath.conj(x) * y for x, y in zip(b[j], m[i])) for j in range(dim)]
            for i in range(dim)
        ]
        worst = 0.0
        for i in range(dim):
            for j in range(dim):
                exact = mpmath.fsum(m[k][i] * c[k][l] * mpmath.conj(b[l][j]) for k in range(dim) for l in range(dim))
                worst = max(worst, float(abs(mpmath.mpc(complex(mat[i, j])) - exact)) / bound[i, j])
        return worst


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("seed", range(3))
def test_haar_reconstruction_against_the_oracle(dim, seed):
    rng = np.random.default_rng(4000 * dim + seed)
    dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
    assert reconstruction_error(dist, reconstruct_state(dist).mat) <= 1.0


def test_the_reconstruction_oracle_sees_a_moved_entry():
    # an entry moved by 10 times its bound reads as at least 9 bounds off
    rng = np.random.default_rng(4004)
    dist = kd_joint(random_state(rng, 4), haar_basis(rng, 4, "m"), haar_basis(rng, 4, "b"))
    moved = reconstruct_state(dist).mat.copy()
    moved[1, 2] += 10 * reconstruction_bound(dist)[1, 2]
    assert reconstruction_error(dist, moved) >= 9.0
