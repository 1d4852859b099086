import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar_basis, product_trace, random_state, real_haar_basis
from kdqlab import (
    SCENARIO_NAMES,
    ActionSpectrum,
    KDDistribution,
    Operator,
    OrthonormalBasis,
    PostSelectionError,
    ReconstructionError,
    SampleBatch,
    ScenarioReport,
    StateVector,
    Transformation,
    bloch_state,
    build,
    complete_basis,
    inner,
    is_half_periodic,
    kd_joint,
    marginals,
    negativity,
    overlap_direct,
    overlap_from_kd,
    post_selection_basis,
    projector,
    reconstruct_state,
    three_box,
    unitary_from_actions,
    weak_value,
)

TOL = 1e-10

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


# phase lists of dims 1-16: any finite float, the branch points and their neighbours, extremes and subnormals
PHASE_LISTS = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-20.0, max_value=20.0),
        st.sampled_from(
            [math.pi, -math.pi, 0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, -1e-310]
            + [k * math.pi for k in range(-41, 42, 2)]
            + [float(np.nextafter(k * math.pi, to)) for k in (-3, -1, 1, 3) for to in (-np.inf, np.inf)]
        ),
    ),
    min_size=1,
    max_size=16,
)


def three_box_setup():
    basis_m = OrthonormalBasis.standard(3, ("1", "2", "3"))
    a = StateVector.normalize([1.0, 1.0, 1.0])
    b = StateVector.normalize([1.0, 1.0, -1.0])
    basis_b = post_selection_basis(a, b, ("b", "rest", "null"))
    return a, b, basis_m, basis_b


def kd_table_oracle(a, basis_m, basis_b):
    """Entrywise product-trace of the three projectors (independent route)."""
    dim = a.dim
    table = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            table[i, j] = product_trace(
                [projector(basis_b.vectors[j]), projector(basis_m.vectors[i]), projector(a)]
            )
    return table


def haar_kd_inputs(seed, dim, pinned):
    """Haar bases m and b and a state a that is random, or pinned to the first m or b vector.

    Pinning leaves rows (or columns) of Born weight 0, where a perturbation can push a sum below zero.
    """
    rng = np.random.default_rng(seed)
    basis_m, basis_b = haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")
    a = {None: random_state(rng, dim), "m": basis_m.vectors[0], "b": basis_b.vectors[0]}[pinned]
    return rng, a, basis_m, basis_b


def reference_outcome(a, basis_m, basis_b, table):
    """What ``KDDistribution`` makes of a table: its checks in their documented order, written out plainly.

    Returns the rejection message, or the bytes of the accepted (prob_m, prob_b).
    """
    table = np.array(table, dtype=complex)
    if not np.all(np.isfinite(table)):
        return "table entries must be finite"
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(np.sum(table))
        sums = np.array((np.sum(table, axis=1), np.sum(table, axis=0)))
        off = np.abs(np.complex128(total) - 1.0)  # inf, not OverflowError, past the float range
    if not off <= TOL:
        return f"table entries must sum to 1, got {total}"
    born = np.array([np.abs(basis.matrix.conj() @ a.amp) ** 2 for basis in (basis_m, basis_b)])
    row_defect = float(np.max(np.abs(sums[0] - born[0])))
    col_defect = float(np.max(np.abs(sums[1] - born[1])))
    if not (row_defect <= TOL and col_defect <= TOL):
        return f"marginal identities violated (row defect {row_defect:.3e}, column defect {col_defect:.3e})"
    real = sums.real
    if np.max(real) > 1.0 + TOL:
        return f"marginal outside [0, 1]: {real}"
    probs = np.clip(real, 0.0, 1.0)
    return probs[0].tobytes(), probs[1].tobytes()


def perturb(rng, table, kind, size):
    """Perturb a joint table in place by noise of the given size, or by a non-finite or overflowing entry."""
    dim, shape = table.shape[0], table.shape
    if kind == "complex":
        table += size * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    elif kind == "imaginary":
        table += 1j * size * rng.standard_normal(shape)
    elif kind == "column-shift":  # row sums and the total stay; two columns move
        row, (j, k) = rng.integers(dim), rng.integers(dim, size=2)
        shift = size * complex(rng.standard_normal(), rng.standard_normal())
        table[row, j] += shift
        table[row, k] -= shift
    elif kind == "scale":
        table *= 1.0 + size * rng.standard_normal()
    elif kind == "nan":
        table[tuple(rng.integers(dim, size=2))] = complex(np.nan, 0.0) if rng.random() < 0.5 else complex(0.0, np.nan)
    elif kind == "inf":
        table[tuple(rng.integers(dim, size=2))] += rng.choice([np.inf, -np.inf, 1j * np.inf])
    else:  # finite entries whose sums can pass the float range
        table[tuple(rng.integers(dim, size=2))] = 1.7e308 * rng.choice([1.0, -1.0, 1j])
        table[tuple(rng.integers(dim, size=2))] = 1.7e308


def outcome(build):
    try:
        dist = build()
    except ValueError as exc:
        return str(exc)
    return dist.prob_m.tobytes(), dist.prob_b.tobytes()


class TestKDJoint:
    def test_joint_eigenstate(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        dist = kd_joint(StateVector([1.0, 0.0]), basis, basis)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dist.table, expected, atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_commuting_preparation(self, seed, dim):
        rng = np.random.default_rng(seed)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        idx = int(rng.integers(dim))
        a = basis_m.vectors[idx]
        dist = kd_joint(a, basis_m, basis_b)
        assert np.max(np.abs(dist.table.imag)) <= TOL
        assert float(dist.table.real.min()) >= -TOL
        row = dist.table[idx].real
        born = np.abs(basis_b.matrix.conj() @ a.amp) ** 2
        np.testing.assert_allclose(row, born, atol=TOL)

    def test_three_box_column(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        np.testing.assert_allclose(
            dist.table[:, 0], [1.0 / 9.0, 1.0 / 9.0, -1.0 / 9.0], atol=TOL
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_matches_product_trace_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        dist = kd_joint(a, basis_m, basis_b)
        np.testing.assert_allclose(dist.table, kd_table_oracle(a, basis_m, basis_b), atol=TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_phase_convention_independence(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        reference = kd_joint(a, basis_m, basis_b).table
        idx = int(rng.integers(dim))
        phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        for side, basis in (("m", basis_m), ("b", basis_b)):
            twisted_vectors = list(basis.vectors)
            twisted_vectors[idx] = StateVector(twisted_vectors[idx].amp * phase)
            twisted = OrthonormalBasis(basis.labels, tuple(twisted_vectors))
            table = (
                kd_joint(a, twisted, basis_b).table
                if side == "m"
                else kd_joint(a, basis_m, twisted).table
            )
            np.testing.assert_allclose(table, reference, atol=TOL)

    def test_concurrent_reads_are_consistent(self):
        # pure functions over immutable values: many threads, one answer
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(17)
        a = random_state(rng, 4)
        basis_m = haar_basis(rng, 4, "m")
        basis_b = haar_basis(rng, 4, "b")
        reference = kd_joint(a, basis_m, basis_b).table
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(lambda _: kd_joint(a, basis_m, basis_b).table, range(32)))
        for table in tables:
            np.testing.assert_array_equal(table, reference)

    def test_invariant_violation_rejected(self):
        a, _, basis_m, basis_b = three_box_setup()
        good = kd_joint(a, basis_m, basis_b).table
        bad = np.array(good)
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError):
            KDDistribution(a, basis_m, basis_b, bad)

    def test_column_shift_with_fixed_total_rejected(self):
        # total and row 0 stay the same; only columns 0 and 1 move
        a, _, basis_m, basis_b = three_box_setup()
        bad = np.array(kd_joint(a, basis_m, basis_b).table)
        bad[0, 0] += 1e-6
        bad[0, 1] -= 1e-6
        with pytest.raises(ValueError, match="column defect 1.000e-06"):
            KDDistribution(a, basis_m, basis_b, bad)

    def test_marginal_above_one_rejected(self):
        # |a|^2 = 1 + 0.99e-10 passes the state's check, and the sums (1 + 1.5e-10, -0.6e-10) pass the
        # total and the Born defects, but one marginal exceeds 1 + TOL
        a = StateVector([math.sqrt(1 + 0.99e-10), 0.0])
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        table = np.diag([1 + 1.5e-10, -0.6e-10])
        with pytest.raises(ValueError, match=r"^marginal outside \[0, 1\]: "):
            KDDistribution(a, basis, basis, table)
        assert outcome(lambda: KDDistribution(a, basis, basis, table)) == reference_outcome(a, basis, basis, table)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=8),
        pinned=st.sampled_from([None, "m", "b"]),
        kind=st.sampled_from(["complex", "imaginary", "column-shift", "scale"]),
        exponent=st.floats(min_value=-12.0, max_value=-8.0),
    )
    def test_accepted_tables_have_real_nonnegative_marginals(self, seed, dim, pinned, kind, exponent):
        # The defect check alone must imply |Im| <= TOL and Re >= -TOL for every row and column sum.
        rng, a, basis_m, basis_b = haar_kd_inputs(seed, dim, pinned)
        table = np.array(kd_joint(a, basis_m, basis_b).table)
        perturb(rng, table, kind, 10.0**exponent)
        try:
            KDDistribution(a, basis_m, basis_b, table)
        except ValueError:
            return
        sums = np.concatenate([table.sum(axis=1), table.sum(axis=0)])
        assert np.abs(sums.imag).max() <= TOL
        assert sums.real.min() >= -TOL

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=16),
        pinned=st.sampled_from([None, "m", "b"]),
        kind=st.sampled_from(["complex", "imaginary", "column-shift", "scale"]),
        exponent=st.floats(min_value=-12.0, max_value=-8.0),
    )
    def test_accepted_tables_have_axis_totals_of_one(self, seed, dim, pinned, kind, exponent):
        # The total check alone must bound the totals of the row sums and of the column sums: each is
        # Re sum T summed in another order, so it lies within 2 gamma_{d^2} sum |T| of the checked total,
        # with gamma_n = 1.01 n u (Higham 4.2)
        rng, a, basis_m, basis_b = haar_kd_inputs(seed, dim, pinned)
        table = np.array(kd_joint(a, basis_m, basis_b).table)
        perturb(rng, table, kind, 10.0**exponent)
        try:
            KDDistribution(a, basis_m, basis_b, table)
        except ValueError:
            return
        totals = np.array((table.sum(axis=1), table.sum(axis=0))).real.sum(axis=1)
        rounding = 2 * 1.01 * dim**2 * 2.0**-53 * np.abs(table).sum()
        assert np.abs(totals - 1.0).max() <= TOL + rounding

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=16),
        pinned=st.sampled_from([None, "m", "b"]),
        kind=st.sampled_from(["complex", "imaginary", "column-shift", "scale", "nan", "inf", "overflow"]),
        exponent=st.floats(min_value=-12.0, max_value=-8.0),
    )
    def test_perturbed_tables_keep_their_verdicts_and_messages(self, seed, dim, pinned, kind, exponent):
        # the one-pass checks give the verdict and message of the plain reference
        rng, a, basis_m, basis_b = haar_kd_inputs(seed, dim, pinned)
        table = np.array(kd_joint(a, basis_m, basis_b).table)
        perturb(rng, table, kind, 10.0**exponent)
        expected = reference_outcome(a, basis_m, basis_b, table)
        assert outcome(lambda: KDDistribution(a, basis_m, basis_b, table)) == expected

    def test_dimension_mismatch_rejected(self):
        from kdqlab import DimensionMismatchError

        a2 = StateVector([1.0, 0.0])
        basis3 = OrthonormalBasis.standard(3, ("0", "1", "2"))
        with pytest.raises(DimensionMismatchError):
            kd_joint(a2, basis3, basis3)
        with pytest.raises(DimensionMismatchError):
            overlap_direct(a2, StateVector([1.0, 0.0]), Operator(np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            weak_value(a2, StateVector([0.0, 1.0]), Operator(np.eye(3)))


class TestMarginals:
    def test_trivial(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        prob_m, prob_b = marginals(kd_joint(StateVector([1.0, 0.0]), basis, basis))
        np.testing.assert_allclose(prob_m, [1.0, 0.0], atol=TOL)
        np.testing.assert_allclose(prob_b, [1.0, 0.0], atol=TOL)

    def test_three_box_post_selection(self):
        a, _, basis_m, basis_b = three_box_setup()
        prob_m, prob_b = marginals(kd_joint(a, basis_m, basis_b))
        assert prob_b[0] == pytest.approx(1.0 / 9.0, abs=TOL)
        np.testing.assert_allclose(prob_m, np.full(3, 1.0 / 3.0), atol=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_born_rule_and_clamping(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        prob_m, prob_b = marginals(kd_joint(a, basis_m, basis_b))
        for probs, basis in ((prob_m, basis_m), (prob_b, basis_b)):
            assert probs.sum() == pytest.approx(1.0, abs=TOL)
            assert probs.min() >= 0.0 and probs.max() <= 1.0
            born = np.abs(basis.matrix.conj() @ a.amp) ** 2
            np.testing.assert_allclose(probs, born, atol=TOL)

    def test_returns_the_stored_read_only_arrays(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        first, second = marginals(dist), marginals(dist)
        for once, again in zip(first, second):
            assert once is again
            assert once.flags.writeable is False


class TestWeakValue:
    def test_no_post_selection_is_real_expectation(self):
        rng = np.random.default_rng(5)
        a = random_state(rng, 3)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        hermitian = Operator(h + h.conj().T)
        value = weak_value(a, a, hermitian)
        assert abs(value.imag) <= TOL
        assert value.real == pytest.approx(float(np.vdot(a.amp, hermitian.mat @ a.amp).real), abs=TOL)

    def test_three_box_projectors(self):
        a, b, basis_m, _ = three_box_setup()
        assert weak_value(a, b, projector(basis_m.vectors[0])) == pytest.approx(1.0, abs=TOL)
        assert weak_value(a, b, projector(basis_m.vectors[2])) == pytest.approx(-1.0, abs=TOL)

    def test_orthogonal_post_selection_rejected(self):
        with pytest.raises(PostSelectionError):
            weak_value(StateVector([1.0, 0.0]), StateVector([0.0, 1.0]), pauli_z())

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_equals_normalized_joint_entry(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        dist = kd_joint(a, basis_m, basis_b)
        _, prob_b = marginals(dist)
        j = int(np.argmax(prob_b))
        i = int(rng.integers(dim))
        expected = complex(dist.table[i, j]) / prob_b[j]
        got = weak_value(a, basis_b.vectors[j], projector(basis_m.vectors[i]))
        assert got == pytest.approx(expected, abs=1e-9)


def pauli_z():
    return Operator(np.diag([1.0, -1.0]).astype(complex))


class TestUnitaryFromActions:
    def test_zero_phases_identity(self):
        basis = OrthonormalBasis.standard(3, ("0", "1", "2"))
        got = unitary_from_actions(ActionSpectrum(basis, (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(got.mat, np.eye(3), atol=TOL)

    def test_half_phase_is_z(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        got = unitary_from_actions(ActionSpectrum(basis, (0.0, math.pi)))
        np.testing.assert_allclose(got.mat, np.diag([1.0, -1.0]), atol=TOL)

    def test_x_axis_flip_reflects_bloch_angle(self):
        x_basis = OrthonormalBasis(
            ("+", "-"), (StateVector.normalize([1.0, 1.0]), StateVector.normalize([1.0, -1.0]))
        )
        flip = unitary_from_actions(ActionSpectrum(x_basis, (0.0, math.pi)))
        # a pi rotation about the x axis sends the polar angle theta to pi - theta
        for theta in (0.4, 1.1, 2.0):
            image = StateVector(flip.apply(bloch_state(theta, 0.0)))
            target = bloch_state(math.pi - theta, 0.0)
            # compare projectors: equality is up to a global phase
            np.testing.assert_allclose(projector(image).mat, projector(target).mat, atol=TOL)
        # the axis direction itself is a fixed point
        fixed = StateVector(flip.apply(bloch_state(math.pi / 2, 0.0)))
        np.testing.assert_allclose(
            projector(fixed).mat, projector(bloch_state(math.pi / 2, 0.0)).mat, atol=TOL
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_always_unitary(self, seed, dim):
        rng = np.random.default_rng(seed)
        spectrum = ActionSpectrum(haar_basis(rng, dim), tuple(rng.uniform(-math.pi, math.pi, dim)))
        assert unitary_from_actions(spectrum).is_unitary()


class TestOverlaps:
    def test_direct_identity_unitary(self):
        rng = np.random.default_rng(11)
        a, b = random_state(rng, 3), random_state(rng, 3)
        got = overlap_direct(a, b, Operator(np.eye(3)))
        assert got == pytest.approx(abs(inner(b, a)) ** 2, abs=TOL)

    def test_direct_rejects_non_unitary(self):
        rng = np.random.default_rng(3)
        a, b = random_state(rng, 2), random_state(rng, 2)
        with pytest.raises(ValueError, match="unitary"):
            overlap_direct(a, b, projector(a))

    def test_from_kd_zero_phases_collapse(self):
        rng = np.random.default_rng(7)
        a = random_state(rng, 3)
        basis_m = haar_basis(rng, 3, "m")
        basis_b = haar_basis(rng, 3, "b")
        dist = kd_joint(a, basis_m, basis_b)
        _, prob_b = marginals(dist)
        spectrum = ActionSpectrum(basis_m, (0.0, 0.0, 0.0))
        for j in range(3):
            assert overlap_from_kd(dist, spectrum, j) == pytest.approx(prob_b[j], abs=TOL)

    def test_three_box_half_periodic_overlap_is_one(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        spectrum = ActionSpectrum(basis_m, (0.0, 0.0, math.pi))
        assert overlap_from_kd(dist, spectrum, 0) == pytest.approx(1.0, abs=TOL)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_matches_direct_route(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        dist = kd_joint(a, basis_m, basis_b)
        _, prob_b = marginals(dist)
        j = int(np.argmax(prob_b))
        spectrum = ActionSpectrum(basis_m, tuple(rng.uniform(-math.pi, math.pi, dim)))
        direct = overlap_direct(a, basis_b.vectors[j], unitary_from_actions(spectrum))
        assert overlap_from_kd(dist, spectrum, j) == pytest.approx(direct, abs=1e-9)

    def test_from_kd_undefined_column(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        dist = kd_joint(StateVector([1.0, 0.0]), basis, basis)
        with pytest.raises(PostSelectionError):
            overlap_from_kd(dist, ActionSpectrum(basis, (0.0, 0.0)), 1)

    def test_from_kd_basis_mismatch(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        with pytest.raises(ValueError, match="basis"):
            overlap_from_kd(dist, ActionSpectrum(basis_b, (0.0, 0.0, 0.0)), 0)

    def test_from_kd_accepts_an_equal_basis_object(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        copy = OrthonormalBasis(basis_m.labels, tuple(StateVector(v.amp) for v in basis_m.vectors))
        assert copy is not basis_m
        phases = (0.0, 0.0, math.pi)
        same = overlap_from_kd(dist, ActionSpectrum(basis_m, phases), 0)
        assert overlap_from_kd(dist, ActionSpectrum(copy, phases), 0) == same



def transformation_config(seed, dim, orthogonal_b0=False):
    """Seeded Haar bases, a random preparation and random phases; optionally a orthogonal to b0."""
    rng = np.random.default_rng(seed)
    basis_m, basis_b = haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")
    amp = random_state(rng, dim).amp
    if orthogonal_b0:
        b0 = basis_b.vectors[0].amp
        amp = amp - np.vdot(b0, amp) * b0
    phases = tuple(rng.uniform(-math.pi, math.pi, dim))
    return StateVector.normalize(amp), basis_m, basis_b, phases


class TestTransformation:
    @pytest.mark.parametrize(
        "seed, dim, orthogonal_b0",
        [(81, 2, False), (82, 3, False), (83, 4, False), (84, 8, False), (85, 4, True)],
        ids=["haar-d2", "haar-d3", "haar-d4", "haar-d8", "d4-b0-orthogonal-to-a"],
    )
    def test_reads_the_engine_functions_for_every_b(self, seed, dim, orthogonal_b0):
        a, basis_m, basis_b, phases = transformation_config(seed, dim, orthogonal_b0)
        dist = kd_joint(a, basis_m, basis_b)
        spectrum = ActionSpectrum(basis_m, phases)
        unitary = unitary_from_actions(spectrum)
        assert (dist.prob_b[0] <= TOL) == orthogonal_b0
        for b in range(dim):
            t = Transformation(dist, phases, b)
            assert t.b == b and t.spectrum.phase == spectrum.phase
            assert np.array_equal(t.unitary.mat, unitary.mat)
            assert t.direct == overlap_direct(a, basis_b.vectors[b], unitary)
            assert (t.from_kd is None) == (dist.prob_b[b] <= TOL)
            if t.from_kd is None:
                with pytest.raises(PostSelectionError):
                    overlap_from_kd(dist, spectrum, b)
            else:
                assert t.from_kd == overlap_from_kd(dist, spectrum, b)
            assert abs(t.distance**2 - (1.0 - t.direct)) <= 1e-12

    @pytest.mark.parametrize(
        "seed, dim, orthogonal_b0",
        [(86, 1, False), (87, 3, False), (88, 16, False), (85, 4, True)],
        ids=["d1", "d3", "d16", "d4-b0-orthogonal-to-a"],
    )
    def test_column_reads_each_column_as_a_fresh_construction(self, seed, dim, orthogonal_b0):
        a, basis_m, basis_b, phases = transformation_config(seed, dim, orthogonal_b0)
        dist = kd_joint(a, basis_m, basis_b)
        first = Transformation(dist, phases, dim - 1)
        before = dict(vars(first))
        for b in range(dim):
            fresh = Transformation(dist, phases, b)
            assert first.column(b) == (fresh.direct, fresh.from_kd)
            assert vars(first).keys() == before.keys()
            assert all(vars(first)[k] is v for k, v in before.items())  # the object is left unchanged
        with pytest.raises(ValueError, match=f"b {dim} out of range for dimension {dim}"):
            first.column(dim)

    @pytest.mark.parametrize("seed, dim", [(86, 1), (87, 3), (88, 16)], ids=["d1", "d3", "d16"])
    def test_image_is_the_read_only_image_of_a_shared_by_every_column(self, seed, dim):
        a, basis_m, basis_b, phases = transformation_config(seed, dim)
        t = Transformation(kd_joint(a, basis_m, basis_b), phases, 0)
        assert t.image.tobytes() == t.unitary.apply(a).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            t.image[0] = 0.0
        image = t.image
        for b in range(dim):
            t.column(b)
            assert t.image is image


class TestIndexRule:
    CALLS = {
        "overlap_from_kd": lambda dist, spectrum, i: overlap_from_kd(dist, spectrum, i),
        "Transformation": lambda dist, spectrum, i: Transformation(dist, spectrum.phase, i).from_kd,
        "Transformation.column": lambda dist, spectrum, i: Transformation(dist, spectrum.phase, 0).column(i),
    }

    @staticmethod
    def three_box():
        a, _, basis_m, basis_b = three_box_setup()
        return kd_joint(a, basis_m, basis_b), ActionSpectrum(basis_m, (0.0, 0.0, math.pi))

    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_out_of_range_index_is_rejected(self, call, index):
        # a negative index must not wrap around to the last row or column
        with pytest.raises(ValueError, match=f"{index} out of range for dimension 3"):
            self.CALLS[call](*self.three_box(), index)

    @pytest.mark.parametrize("index", [True, 1.0, np.float64(1)], ids=["True", "1.0", "float64"])
    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_bool_or_float_index_is_rejected(self, call, index):
        # True is an int subclass and would read column 1; a float would fail inside numpy indexing
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {index!r}")):
            self.CALLS[call](*self.three_box(), index)

    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_numpy_integer_index_reads_the_same_column(self, call):
        dist, spectrum = self.three_box()
        assert self.CALLS[call](dist, spectrum, np.int64(1)) == self.CALLS[call](dist, spectrum, 1)


class TestValidation:
    """Each engine value and function rejects malformed input with its own message.

    The messages of the qcore value classes are pinned in ``test_qcore.TestValidation``.
    """

    CASES = {
        "KDDistribution table shape": (
            lambda a, m: KDDistribution(a, m, m, np.eye(2)),
            r"table must have shape \(3, 3\), got \(2, 2\)",
        ),
        "KDDistribution NaN entry": (
            lambda a, m: KDDistribution(a, m, m, np.diag([np.nan, 0.5, 0.5])),
            "table entries must be finite",
        ),
        "KDDistribution infinite pair": (
            lambda a, m: KDDistribution(a, m, m, np.diag([np.inf, -np.inf, 1.0])),
            "table entries must be finite",
        ),
        "KDDistribution sum overflows": (
            lambda a, m: KDDistribution(a, m, m, np.diag([1e308, 1e308, -1e308])),
            r"table entries must sum to 1, got \(inf\+0j\)",
        ),
        "KDDistribution sum modulus overflows": (
            lambda a, m: KDDistribution(a, m, m, np.diag([1.7e308, 1.7e308j, 0.0])),
            r"table entries must sum to 1, got \(1\.7e\+308\+1\.7e\+308j\)",
        ),
        "KDDistribution sum is nan": (
            lambda a, m: KDDistribution(a, m, m, [[1.7e308, 1.7e308, -1.7e308], [-1.7e308, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            r"table entries must sum to 1, got \(nan\+0j\)",
        ),
        "KDDistribution row sums overflow": (
            lambda a, m: KDDistribution(a, m, m, [[1.7e308, 1.7e308, 0.0], [-1.7e308, -1.7e308, 0.0], [0.0, 0.0, 1.0]]),
            r"marginal identities violated \(row defect inf, column defect 6\.667e-01\)",
        ),
        "weak_value image overflows": (
            lambda a, m: weak_value(a, a, Operator(np.full((3, 3), 1.5e308))),
            "operator image of the state overflows",
        ),
        "weak_value quotient overflows": (
            # <b|a> ~ 4e-9 passes the post-selection test; the finite numerator ~ 8e307 divided by it does not fit
            lambda a, m: weak_value(a, StateVector.normalize([1.0, -1.0, 1e-8]), Operator(np.diag([1e308, -1e308, 0.0]))),
            "weak value overflows",
        ),
        "overlap_direct product overflows": (
            lambda a, m: overlap_direct(a, a, Operator(np.diag([1e300, 1.0, 1.0]))),
            "operator is not unitary within tolerance",
        ),
        "complete_basis no seeds": (lambda a, m: complete_basis([], ()), "at least one seed vector required"),
        "complete_basis label count": (lambda a, m: complete_basis([a], ("x", "y")), "need 3 labels, got 2"),
        "complete_basis too many seeds": (
            lambda a, m: complete_basis([a] * 4, ("x", "y", "z")),
            "need at most 3 seed vectors, got 4",
        ),
        "ActionSpectrum NaN phase": (
            lambda a, m: ActionSpectrum(m, (0.0, np.nan, 0.0)),
            "action phases must be finite",
        ),
        "ScenarioReport two checks": (
            lambda a, m: ScenarioReport("three-box", kd_joint(a, m, m), three_box().checks[:2]),
            "a scenario report needs at least three checks",
        ),
        "SampleBatch unequal arrays": (
            lambda a, m: SampleBatch(np.zeros(3), np.zeros(2, dtype=int)),
            "readings and b_index must both hold one entry per shot",
        ),
        "SampleBatch float index": (  # a cast would store [0, 1, -2]
            lambda a, m: SampleBatch(np.zeros(3), np.array([0.5, 1.7, -2.9])),
            "b_index must hold non-negative integers, got dtype float64",
        ),
        "SampleBatch bool index": (
            lambda a, m: SampleBatch(np.zeros(3), np.array([True, False, True])),
            "b_index must hold non-negative integers, got dtype bool",
        ),
        "SampleBatch negative index": (
            lambda a, m: SampleBatch(np.zeros(3), np.array([0, -2, 1])),
            "b_index must hold non-negative integers, got -2",
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_rejects_with_its_message(self, case):
        a, _, basis_m, _ = three_box_setup()
        build, message = self.CASES[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(a, basis_m)


class TestOptimalAction:
    """The action phase that best maps ``a`` to b along m is the argument of the table entry."""

    def test_positive_entry(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        dist = kd_joint(StateVector([1.0, 0.0]), basis, basis)
        assert float(np.angle(dist.table[0, 0])) == pytest.approx(0.0, abs=TOL)

    def test_three_box_negative_entry(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        assert float(np.angle(dist.table[2, 0])) == pytest.approx(math.pi, abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_sign_phase_law(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        dist = kd_joint(a, haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
        for i in range(dim):
            for j in range(dim):
                entry = complex(dist.table[i, j])
                if abs(entry) <= TOL:
                    continue
                assert (entry.real < 0) == (abs(np.angle(entry)) > math.pi / 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_phase_compensation_is_optimal(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        dist = kd_joint(a, basis_m, haar_basis(rng, dim, "b"))
        _, prob_b = marginals(dist)
        j = int(np.argmax(prob_b))
        column = dist.table[:, j]
        best_phases = tuple(float(np.angle(column[i])) if abs(column[i]) > TOL else 0.0 for i in range(dim))
        optimum = overlap_from_kd(dist, ActionSpectrum(basis_m, best_phases), j)
        target = float(np.sum(np.abs(column))) ** 2 / prob_b[j]
        assert optimum == pytest.approx(target, abs=1e-9)
        for _ in range(5):
            other = ActionSpectrum(basis_m, tuple(rng.uniform(-math.pi, math.pi, dim)))
            assert overlap_from_kd(dist, other, j) <= optimum + 1e-9


def half_periodic_oracle(spectrum):
    """The verdict with the doubled phase factors computed afresh as ``exp(-2i phase)``."""
    doubled = np.exp(-2j * np.asarray(spectrum.phase))
    return bool(np.max(np.abs(doubled - doubled[0])) <= TOL)


# half the phase step at which |e^{-2i phi} - e^{-2i phi_0}| = 2 |sin(phi - phi_0)| crosses TOL, scaled
# 1e-3 inside and outside: far beyond the rounding of either route to the doubled factors
INSIDE, OUTSIDE = 0.5 * TOL * (1.0 - 1e-3), 0.5 * TOL * (1.0 + 1e-3)


class TestHalfPeriodic:
    def test_examples(self):
        basis2 = OrthonormalBasis.standard(2, ("0", "1"))
        basis3 = OrthonormalBasis.standard(3, ("0", "1", "2"))
        assert is_half_periodic(ActionSpectrum(basis2, (0.0, math.pi)))
        assert is_half_periodic(ActionSpectrum(basis3, (0.0, 0.0, math.pi)))
        assert not is_half_periodic(ActionSpectrum(basis2, (0.0, math.pi / 2)))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_half_periodic_square_proportional_to_identity(self, seed, dim):
        rng = np.random.default_rng(seed)
        basis = haar_basis(rng, dim)
        offset = rng.uniform(-math.pi, math.pi)
        phases = tuple(offset + (math.pi if rng.integers(2) else 0.0) for _ in range(dim))
        spectrum = ActionSpectrum(basis, phases)
        assert is_half_periodic(spectrum)
        u = unitary_from_actions(spectrum)
        squared = u.mat @ u.mat
        scale = squared[0, 0] / np.eye(dim)[0, 0]
        np.testing.assert_allclose(squared, scale * np.eye(dim), atol=TOL)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_verdict_equals_the_recomputed_factor_oracle(self, dim):
        rng = np.random.default_rng(dim)
        basis = OrthonormalBasis.standard(dim, tuple(map(str, range(dim))))
        special = [0.0, math.pi, math.pi + 1e-9, math.pi - 1e-9]

        def flips(offset, steps):
            # the first phase carries no step, so the largest distance is 2 |sin(step)| of some later one
            jumps = math.pi * rng.integers(2, size=dim)
            return tuple(offset + jump + (step if k else 0.0) for k, (jump, step) in enumerate(zip(jumps, steps)))

        cases = []  # (phases, verdict the boundary cases must have, or None)
        for _ in range(20):
            offset = rng.uniform(-math.pi, math.pi)
            cases.append((tuple(rng.uniform(-math.pi, math.pi, dim)), None))
            cases.append((tuple(rng.choice(special, dim)), None))
            cases.append((flips(offset, np.zeros(dim)), True))
            cases.append((flips(offset, INSIDE * rng.choice([-1.0, 1.0], dim)), True))
            if dim > 1:
                steps = INSIDE * rng.choice([-1.0, 0.0, 1.0], dim)
                steps[rng.integers(1, dim)] = OUTSIDE * rng.choice([-1.0, 1.0])
                cases.append((flips(offset, steps), False))
        verdicts = set()
        for phases, expected in cases:
            spectrum = ActionSpectrum(basis, phases)
            oracle = half_periodic_oracle(spectrum)
            assert is_half_periodic(spectrum) == oracle, phases
            if expected is not None:
                assert oracle == expected, phases
            verdicts.add(oracle)
        assert verdicts == ({True} if dim == 1 else {True, False})

    @settings(max_examples=300, deadline=None)
    @given(phases=PHASE_LISTS)
    def test_factor_is_the_read_only_phase_factor(self, phases):
        # the unitary, the overlap identity, is_half_periodic and the scenario reports read these bits. The
        # half-periodic law reads the conjugate as e^{i phase}: it equals np.exp's value, and its bits differ
        # only in the sign of a zero imaginary part (phase -0.0), which the law's residual cannot see
        basis = OrthonormalBasis.standard(len(phases), tuple(map(str, range(len(phases)))))
        spectrum = ActionSpectrum(basis, tuple(phases))
        declared = np.array(phases, float)
        assert all(type(p) is float for p in spectrum.phase)
        assert np.array(spectrum.phase).tobytes() == declared.tobytes()  # stored as given
        assert spectrum.factor.tobytes() == np.exp(-1j * declared).tobytes()
        conj, plus = spectrum.factor.conj(), np.exp(1j * declared)
        assert np.array_equal(conj, plus) and conj.real.tobytes() == plus.real.tobytes()
        assert np.all((conj.imag.view(np.int64) == plus.imag.view(np.int64)) | (plus.imag == 0.0))
        with pytest.raises(ValueError, match="read-only"):
            spectrum.factor[0] = 1.0

    def test_phase_count_mismatch(self):
        with pytest.raises(ValueError):
            ActionSpectrum(OrthonormalBasis.standard(2, ("0", "1")), (0.0,))


# slack for rounding: the sums below run over at most 16 entries of modulus <= 1, and the largest excess
# seen over 1,500 real tables at dims 2-16 was 1.5e-16
BOUND_SLACK = 1e-15
REAL_COLUMN = 1e-16  # sum_m |Im T_m| up to which a column counts as real; it moves the gap by at most half that


def column_bounds(dist):
    """``(O*_b, bound_b, N_b, sum_m |Im T_m|)`` for each column b with ``P(b|a) > TOL``."""
    rows = []
    for b in range(dist.dim):
        p = float(dist.prob_b[b])
        if p > TOL:
            col = dist.table[:, b]
            optimum = float(abs(col).sum()) ** 2 / p
            bound = math.sqrt(p) * (math.sqrt(optimum) - math.sqrt(p)) / 2.0
            rows.append((optimum, bound, float(np.maximum(0.0, -col.real).sum()), float(abs(col.imag).sum())))
    return rows


class TestColumnBound:
    """The negative weight of a column is bounded by how well any transformation can reach it.

    For column b write ``T_m = table[m, b]``, ``P = P(b|a) = sum_m Re T_m``, ``N_b = sum_m max(0, -Re T_m)``
    and ``O*_b = (sum_m |T_m|)^2 / P``, the best overlap onto b that action phases on the m basis reach.
    Proof of ``O*_b <= 1`` and ``N_b <= sqrt(P) (sqrt(O*_b) - sqrt(P)) / 2 <= 1/8``:

    1. ``|T_m| = |<b|m>| |<m|a>| sqrt(P)``, and Cauchy-Schwarz gives ``sum_m |<b|m>| |<m|a>| <= 1``: ``O*_b <= 1``.
    2. ``sum_m |Re T_m| = P + 2 N_b`` and ``|Re T_m| <= |T_m|``, so ``N_b <= (sqrt(P O*_b) - P) / 2``, with
       equality exactly when every ``T_m`` is real, that is, when the best transformation is half-periodic.
    3. With ``O*_b <= 1`` this is at most ``x (1 - x) / 2`` at ``x = sqrt(P)``, whose maximum is 1/8.
    """

    def assert_bounds(self, dist):
        rows = column_bounds(dist)
        for optimum, bound, neg, imag in rows:
            assert optimum <= 1.0 + BOUND_SLACK
            assert neg <= bound + BOUND_SLACK
            assert bound <= 0.125 + BOUND_SLACK
            if imag <= REAL_COLUMN:
                assert abs(bound - neg) <= BOUND_SLACK
        return rows

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_scenario_column_meets_the_bound_with_equality(self, name):
        # every column is real here, so each negative column meets the bound with equality
        rows = self.assert_bounds(build(name).kd)
        assert any(neg > TOL for _, _, neg, _ in rows) and all(imag <= REAL_COLUMN for *_, imag in rows)

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=2, max_value=16))
    def test_haar_tables(self, seed, dim):
        rng = np.random.default_rng(seed)
        self.assert_bounds(kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b")))

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=2, max_value=16))
    def test_real_tables_meet_it_with_equality(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = StateVector.normalize(rng.standard_normal(dim))
        dist = kd_joint(a, real_haar_basis(rng, dim, "m"), real_haar_basis(rng, dim, "b"))
        assert all(imag == 0.0 for *_, imag in self.assert_bounds(dist))


class TestNegativity:
    def test_commuting_case_no_negativity(self):
        basis = OrthonormalBasis.standard(2, ("0", "1"))
        report = negativity(kd_joint(StateVector([1.0, 0.0]), basis, basis))
        assert report.total_negativity == 0.0
        assert report.min_real >= -TOL

    def test_three_box(self):
        a, _, basis_m, basis_b = three_box_setup()
        report = negativity(kd_joint(a, basis_m, basis_b))
        assert report.total_negativity == pytest.approx(1.0 / 9.0, abs=TOL)
        assert report.min_real == pytest.approx(-1.0 / 9.0, abs=TOL)
        assert report.argmin == ("3", "b")
        assert report.max_abs_phase == pytest.approx(math.pi, abs=TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_consistency(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = random_state(rng, dim)
        dist = kd_joint(a, haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
        report = negativity(dist)
        assert report.total_negativity >= 0.0
        assert (report.total_negativity > 0.0) == (report.min_real < 0.0)
        assert report.min_real == pytest.approx(float(dist.table.real.min()), abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_equals_the_numpy_function_form_bit_for_bit(self, seed, dim):
        rng = np.random.default_rng(seed)
        dist = kd_joint(random_state(rng, dim), haar_basis(rng, dim, "m"), haar_basis(rng, dim, "b"))
        real = dist.table.real
        mi, bi = np.unravel_index(int(np.argmin(real)), real.shape)
        significant = np.abs(dist.table) > TOL
        report = negativity(dist)
        assert report.total_negativity == float(np.sum(np.maximum(0.0, -real)))
        assert report.min_real == float(real[mi, bi])
        assert report.argmin == (dist.basis_m.labels[mi], dist.basis_b.labels[bi])
        assert report.max_abs_phase == float(np.max(np.abs(np.angle(dist.table[significant]))))


class TestReconstruction:
    def test_qubit_mutually_unbiased(self):
        z_basis = OrthonormalBasis.standard(2, ("z0", "z1"))
        x_basis = OrthonormalBasis(
            ("x+", "x-"), (StateVector.normalize([1.0, 1.0]), StateVector.normalize([1.0, -1.0]))
        )
        y_plus = StateVector.normalize([1.0, 1.0j])
        rho = reconstruct_state(kd_joint(y_plus, z_basis, x_basis))
        np.testing.assert_allclose(rho.mat, projector(y_plus).mat, atol=TOL)

    def test_preparation_inside_m_basis(self):
        z_basis = OrthonormalBasis.standard(2, ("z0", "z1"))
        x_basis = OrthonormalBasis(
            ("x+", "x-"), (StateVector.normalize([1.0, 1.0]), StateVector.normalize([1.0, -1.0]))
        )
        a = z_basis.vectors[0]
        rho = reconstruct_state(kd_joint(a, z_basis, x_basis))
        np.testing.assert_allclose(rho.mat, projector(a).mat, atol=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_random_round_trip_d3(self, seed):
        rng = np.random.default_rng(seed)
        a = random_state(rng, 3)
        basis_m = haar_basis(rng, 3, "m")
        basis_b = haar_basis(rng, 3, "b")
        cross = np.abs(basis_b.matrix.conj() @ basis_m.matrix.T)
        assume(float(cross.min()) > 1e-3)
        rho = reconstruct_state(kd_joint(a, basis_m, basis_b))
        np.testing.assert_allclose(rho.mat, projector(a).mat, atol=1e-9)

    def test_ill_posed_pair_identified(self):
        basis = OrthonormalBasis.standard(2, ("m0", "m1"))
        dist = kd_joint(StateVector.normalize([1.0, 1.0]), basis, basis)
        with pytest.raises(ReconstructionError, match="m0"):
            reconstruct_state(dist)
