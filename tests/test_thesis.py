"""The paper's thesis as identities on the joint table, tested on random instances.

A half-periodic transformation that maps a onto b forces the negative weight of column b, and its size is fixed
by how the transformation splits a (the forward identity). On a qubit every cell's phase is half the solid angle
of the Bloch triangle (a, m, b), so the half-periodic cells, whose triangles are degenerate, are the real ones.
On a real column, the best overlap with b that a half-periodic flip of a reaches exceeds P(b) exactly when the
column has negative weight; GHZ-Mermin's columns are a case, and the quantum pigeonhole's complex column shows
where that reading stops.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import haar_basis, random_state, real_haar_basis
from kdqlab import (
    ActionSpectrum,
    OrthonormalBasis,
    StateVector,
    Transformation,
    bloch_state,
    complete_basis,
    is_half_periodic,
    kd_joint,
    leggett_garg,
    pauli,
    tensor_state,
    unitary_from_actions,
)
from kdqlab.scenarios import _EIGEN

seeds = st.integers(min_value=0, max_value=2**32 - 1)
IDENTITY_TOL = 1e-13  # the forward identity's residual; a prototype on 3,000 maps reached 1.1e-15
PHASE_TOL = 1e-12  # radians; a prototype on 8,000 qubit cells reached 1.2e-14
MODULUS_TOL = 1e-14  # a prototype on the same cells reached 9.1e-16
VISIBLE = 1e-6  # a cell's phase is compared only where its modulus exceeds this
FLIP_TOL = 1e-12  # H_b against brute force and against O*_b; a prototype on 1,600 columns matched exactly


class TestForwardIdentity:
    """A half-periodic map of a onto b fixes column b and its negativity.

    With phases ``phi(m)`` in {0, pi}, ``U = sum_m e^{-i phi(m)} |m><m|`` and ``b = U a``,
    ``<b|m><m|a> = e^{i phi(m)} P(m|a)`` and ``<a|b> = sum_n e^{-i phi(n)} P(n|a) = P+ - P-``, where ``P+`` and
    ``P-`` sum ``P(n|a)`` over the phases 0 and pi. So column b is ``e^{i phi(m)} P(m|a) (P+ - P-)``: real, with
    the sign of each entry set by its phase. Its negative entries are the minority side's, so
    ``N_b = min(P+, P-) |P+ - P-|``, which is ``x (1 - 2 x) <= 1/8`` at ``x = min(P+, P-)`` (ROADMAP item 15).
    """

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=2, max_value=16))
    def test_column_b_of_a_half_periodic_map(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, basis_m = random_state(rng, dim), haar_basis(rng, dim, "m")
        flips = rng.integers(2, size=dim).astype(bool)  # phase pi where True, 0 elsewhere
        unitary = unitary_from_actions(ActionSpectrum(basis_m, tuple(np.where(flips, math.pi, 0.0))))
        b = StateVector(unitary.apply(a))
        basis_b = complete_basis([b], [f"b{k}" for k in range(dim)])
        column = kd_joint(a, basis_m, basis_b).table[:, 0]

        prob_m = abs(basis_m.matrix.conj() @ a.amp) ** 2  # P(m|a), from the basis alone
        p_minus = float(prob_m[flips].sum())
        p_plus = float(prob_m[~flips].sum())
        law = np.where(flips, -1.0, 1.0) * prob_m * (p_plus - p_minus)
        assert float(abs(column - law).max()) <= IDENTITY_TOL

        negativity = float(np.maximum(0.0, -column.real).sum())
        assert abs(negativity - min(p_plus, p_minus) * abs(p_plus - p_minus)) <= IDENTITY_TOL
        assert negativity <= 0.125 + IDENTITY_TOL


def bloch_vector(state):
    """``(<X>, <Y>, <Z>)`` of a qubit state."""
    return np.array([np.vdot(state.amp, pauli(axis).mat @ state.amp).real for axis in "XYZ"])


def half_solid_angle(n_a, n_m, n_b):
    """Half the signed solid angle of the geodesic triangle (a, m, b) (Van Oosterom & Strackee, 1983)."""
    numerator = float(n_a @ np.cross(n_m, n_b))
    denominator = 1.0 + float(n_a @ n_m + n_m @ n_b + n_b @ n_a)
    return numerator, denominator, math.atan2(numerator, denominator)


def bloch_basis(theta, phi, prefix):
    """The qubit basis along (theta, phi): its + vector and the antipodal - vector."""
    vectors = (bloch_state(theta, phi), bloch_state(math.pi - theta, phi + math.pi))
    return OrthonormalBasis((f"{prefix}+", f"{prefix}-"), vectors)


class TestGeometricPhase:
    """Every qubit cell is a Bargmann invariant: its phase is minus half its Bloch triangle's solid angle.

    ``T[m,b] = <b|m><m|a><a|b> = Tr(P_a P_b P_m)``, and for qubit projectors
    ``Tr(P_a P_b P_m) = (1 + n_a.n_m + n_m.n_b + n_b.n_a - i n_a.(n_m x n_b)) / 4`` with
    ``|T| = sqrt(prod (1 + n.n') / 2)`` over the three pairs. Its argument is ``-Omega/2``, where
    ``tan(Omega/2)`` is the Van Oosterom–Strackee ratio, so ``Re T < 0`` exactly when ``|Omega| > pi``
    (Pancharatnam, Proc. Indian Acad. Sci. A 44, 247 (1956); Samuel & Bhandari, PRL 60, 2339 (1988);
    ROADMAP item 20).
    """

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds)
    def test_every_cell_of_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            theta = np.arccos(rng.uniform(-1.0, 1.0, 3))  # directions uniform on the sphere
            phi = rng.uniform(0.0, 2.0 * math.pi, 3)
            a = bloch_state(theta[0], phi[0])
            basis_m, basis_b = bloch_basis(theta[1], phi[1], "m"), bloch_basis(theta[2], phi[2], "b")
            table = kd_joint(a, basis_m, basis_b).table
            n_a = bloch_vector(a)
            for (i, m), (j, b) in itertools.product(enumerate(basis_m.vectors), enumerate(basis_b.vectors)):
                n_m, n_b = bloch_vector(m), bloch_vector(b)
                cell = complex(table[i, j])
                modulus = math.sqrt(np.prod([(1.0 + p @ q) / 2.0 for p, q in ((n_a, n_m), (n_m, n_b), (n_b, n_a))]))
                assert abs(abs(cell) - modulus) <= MODULUS_TOL
                if abs(cell) > VISIBLE:
                    half = half_solid_angle(n_a, n_m, n_b)[2]
                    assert abs(np.angle(cell * complex(math.cos(half), math.sin(half)))) <= PHASE_TOL

    @pytest.mark.parametrize("theta", [0.3, math.pi / 3, 1.2])
    def test_leggett_garg_negative_cell_is_a_degenerate_triangle(self, theta):
        # a along 0, m = -1 along theta + pi and b = +1 along 2 theta lie on one great circle, so Omega = 2 pi
        kd = leggett_garg(theta).kd
        n_a, n_m, n_b = map(bloch_vector, (kd.state_a, kd.basis_m.vectors[1], kd.basis_b.vectors[0]))
        numerator, denominator, half = half_solid_angle(n_a, n_m, n_b)
        assert numerator == 0.0
        assert denominator == pytest.approx(2.0 * math.cos(theta) * (math.cos(theta) - 1.0), abs=1e-15)
        assert denominator < 0.0 and half == pytest.approx(math.pi, abs=PHASE_TOL)
        assert abs(np.angle(complex(kd.table[1, 0]))) == pytest.approx(math.pi, abs=PHASE_TOL)


def best_flip(column):
    """``max over sigma in {+-1}^d of |sum_m sigma_m T_m|**2``, by a sweep over the direction theta.

    ``|z| = max over theta of Re(z e^(-i theta))``, and for a fixed theta the best signs are
    ``sigma_m = sign Re(T_m e^(-i theta))``. Those signs change only at the 2d critical angles
    ``arg T_m +- pi/2``, so one theta inside each arc between neighbouring critical angles meets every sign
    vector that can be best: the midpoints of the arcs (ROADMAP item 2).
    """
    angles = np.angle(column)
    critical = np.sort(np.concatenate([angles + math.pi / 2, angles - math.pi / 2]) % (2.0 * math.pi))
    midpoints = (critical + np.append(critical[1:], critical[0] + 2.0 * math.pi)) / 2.0
    signs = np.where((column[None, :] * np.exp(-1j * midpoints)[:, None]).real >= 0.0, 1.0, -1.0)
    return float((abs(signs @ column) ** 2).max())


def brute_flip(column):
    """The same maximum over all ``2**d`` sign vectors."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(column))))
    return float((abs(signs @ column) ** 2).max())


def column_record(column, p_b):
    """``N_b = (sum |T| - P) / 2``, ``O*_b = (sum |T|)**2 / P`` and ``H_b = best_flip / P`` of one column."""
    absolute = float(abs(column).sum())
    return (absolute - p_b) / 2.0, absolute**2 / p_b, best_flip(column) / p_b


def column_bound(p_b, optimum):
    """Item 2's bound on ``N_b``: ``sqrt P (sqrt O*_b - sqrt P) / 2``."""
    return math.sqrt(p_b) * (math.sqrt(optimum) - math.sqrt(p_b)) / 2.0


class TestBestFlip:
    """``H_b``, the best overlap with b that a half-periodic flip of a reaches, is exact by a sweep.

    ``H_b = max over sigma in {+-1}^d of |sum_m sigma_m T[m,b]|**2 / P(b)``, and
    ``|sum_m sigma_m T[m,b]|**2 / P(b) = |<b|U_sigma|a>|**2`` for ``U_sigma = sum_m sigma_m |m><m|``. On a real
    column the best signs are those of the entries, so ``H_b = O*_b``, and as
    ``O*_b - P = 2 N_b (sum |T| + P) / P``, ``N_b > 0`` exactly when ``H_b > P(b)``: a column has negative
    weight exactly when some half-periodic flip brings a closer to b. On a complex column ``H_b <= O*_b``,
    by the triangle inequality (ROADMAP item 2).
    """

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=1, max_value=8))
    def test_the_sweep_equals_brute_force(self, seed, dim):
        rng = np.random.default_rng(seed)
        table = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")).table
        column = table[:, int(rng.integers(dim))]
        scale = float(abs(column).sum())
        assert abs(best_flip(column) - brute_flip(column)) <= FLIP_TOL * scale**2
        gaussian = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        gaussian /= abs(gaussian).sum()
        assert abs(best_flip(gaussian) - brute_flip(gaussian)) <= FLIP_TOL

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=1, max_value=16))
    def test_on_real_columns_the_best_flip_reaches_the_optimum(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = StateVector.normalize(rng.standard_normal(dim))
        dist = kd_joint(a, real_haar_basis(rng, dim, "m"), real_haar_basis(rng, dim, "b"))
        assert not dist.table.imag.any()
        for b in range(dim):
            column, p_b = dist.table[:, b], float(dist.prob_b[b])
            negative, optimum, best = column_record(column, p_b)
            assert abs(best - optimum) * p_b <= FLIP_TOL
            assert abs(negative - float(np.maximum(0.0, -column.real).sum())) <= FLIP_TOL
            if negative > FLIP_TOL:
                assert best > p_b
            elif column.real.min() >= 0.0:
                assert abs(best - p_b) * p_b <= FLIP_TOL

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=1, max_value=16))
    def test_on_complex_columns_the_best_flip_stays_below_the_optimum(self, seed, dim):
        rng = np.random.default_rng(seed)
        dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
        for b in range(dim):
            p_b = float(dist.prob_b[b])
            _, optimum, best = column_record(dist.table[:, b], p_b)
            assert (best - optimum) * p_b <= FLIP_TOL

    def test_ghz_mermin(self):
        # a = (|000> + |111>)/sqrt 2, rows the local X outcomes and columns the local Y outcomes; each cell
        # carries M = x1x2x3 - x1y2y3 - y1x2y3 - y1y2x3 = +-2 (Mermin, PRL 65, 1838 (1990); ROADMAP item 11)
        signs = list(itertools.product((1, -1), repeat=3))
        labels = tuple("(" + " ".join(f"{s:+d}" for s in triple) + ")" for triple in signs)  # comma-free
        basis_x, basis_y = (
            OrthonormalBasis(labels, tuple(tensor_state(tensor_state(e[s1], e[s2]), e[s3]) for s1, s2, s3 in signs))
            for e in (_EIGEN["X"], _EIGEN["Y"])  # the +-1 eigenstates of X and of Y
        )
        dist = kd_joint(StateVector.normalize([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), basis_x, basis_y)
        x, y = np.array(signs)[:, None, :], np.array(signs)[None, :, :]  # the row's and the column's signs
        cells = x[..., 0] * x[..., 1] * x[..., 2] - x[..., 0] * y[..., 1] * y[..., 2]
        cells = cells - y[..., 0] * x[..., 1] * y[..., 2] - y[..., 0] * y[..., 1] * x[..., 2]
        assert set(cells.ravel().tolist()) == {-2, 2}
        table = dist.table
        assert float(abs(table.imag).max()) <= FLIP_TOL
        assert float((cells * table.real).sum()) == pytest.approx(4.0, abs=FLIP_TOL)
        assert float(table.real[cells == -2].sum()) == pytest.approx(-0.5, abs=FLIP_TOL)
        for b in range(8):
            column, p_b = table[:, b], float(dist.prob_b[b])
            assert p_b == pytest.approx(0.125, abs=FLIP_TOL)
            assert column.real[column.real < -FLIP_TOL].tolist() == pytest.approx([-1.0 / 16.0], abs=FLIP_TOL)
            negative, optimum, best = column_record(column, p_b)
            assert negative == pytest.approx(1.0 / 16.0, abs=FLIP_TOL)
            assert column_bound(p_b, optimum) == pytest.approx(negative, abs=FLIP_TOL)
            assert optimum == pytest.approx(0.5, abs=FLIP_TOL) and best == pytest.approx(0.5, abs=FLIP_TOL)
            # the pi flip on the negative entry is half-periodic and reaches O*_b
            flip = Transformation(dist, tuple(np.where(column.real < 0.0, math.pi, 0.0).tolist()), b)
            assert is_half_periodic(flip.spectrum) and flip.direct == pytest.approx(optimum, abs=FLIP_TOL)

    def test_quantum_pigeonhole_column(self):
        # three particles in (|L> + |R>)/sqrt 2, post-selected in (|L> + i|R>)/sqrt 2 (Aharonov et al., PNAS 113,
        # 532 (2016); ROADMAP item 12). The m basis is the boxes; the map -n_R pi/2, with n_R the particles in R,
        # sends a onto b without being half-periodic. Item 2's N_b = (sum |T| - P) / 2 meets the bound with
        # equality, while the column's negative real weight is only 1/16: the two differ on a complex column
        plus, plus_i = StateVector.normalize([1.0, 1.0]), StateVector.normalize([1.0, 1.0j])
        a, b = (tensor_state(tensor_state(v, v), v) for v in (plus, plus_i))
        boxes = tuple("".join(sides) for sides in itertools.product("LR", repeat=3))
        dist = kd_joint(a, OrthonormalBasis.standard(8, boxes), complete_basis([b], [f"b{k}" for k in range(8)]))
        column, p_b = dist.table[:, 0], float(dist.prob_b[0])
        expected = [(-1j) ** box.count("R") * (-1.0 + 1j) / 32.0 for box in boxes]  # (+-1 +- i) / 32
        assert float(abs(column - expected).max()) <= FLIP_TOL
        assert p_b == pytest.approx(0.125, abs=FLIP_TOL)
        negative, optimum, best = column_record(column, p_b)
        assert optimum == pytest.approx(1.0, abs=FLIP_TOL) and best == pytest.approx(0.5, abs=FLIP_TOL)
        assert negative == pytest.approx((math.sqrt(2.0) / 4.0 - 0.125) / 2.0, abs=FLIP_TOL)  # 0.11428
        assert column_bound(p_b, optimum) == pytest.approx(negative, abs=FLIP_TOL)
        assert float(np.maximum(0.0, -column.real).sum()) == pytest.approx(1.0 / 16.0, abs=FLIP_TOL)
        shift = Transformation(dist, tuple(-box.count("R") * math.pi / 2.0 for box in boxes), 0)
        assert not is_half_periodic(shift.spectrum)
        assert shift.direct == pytest.approx(1.0, abs=FLIP_TOL)
