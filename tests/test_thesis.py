"""The paper's thesis as identities on the joint table, tested on random instances.

A half-periodic transformation that maps a onto b forces the negative weight of column b, and its size is fixed
by how the transformation splits a (the forward identity). On a qubit every cell's phase is half the solid angle
of the Bloch triangle (a, m, b), so the half-periodic cells, whose triangles are degenerate, are the real ones.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import haar_basis, random_state
from kdqlab import (
    ActionSpectrum,
    OrthonormalBasis,
    StateVector,
    bloch_state,
    complete_basis,
    kd_joint,
    leggett_garg,
    pauli,
    unitary_from_actions,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
IDENTITY_TOL = 1e-13  # the forward identity's residual; a prototype on 3,000 maps reached 1.1e-15
PHASE_TOL = 1e-12  # radians; a prototype on 8,000 qubit cells reached 1.2e-14
MODULUS_TOL = 1e-14  # a prototype on the same cells reached 9.1e-16
VISIBLE = 1e-6  # a cell's phase is compared only where its modulus exceeds this


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
