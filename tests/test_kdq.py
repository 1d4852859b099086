import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar_basis, random_state
from kdqlab import (
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
    UndefinedPhaseError,
    bloch_state,
    complete_basis,
    inner,
    is_half_periodic,
    kd_joint,
    marginals,
    negativity,
    optimal_action,
    overlap_direct,
    overlap_from_kd,
    post_selection_basis,
    product_trace,
    projector,
    reconstruct_state,
    three_box,
    unitary_from_actions,
    weak_value,
)
from kdqlab.kdq import reduce_phase

TOL = 1e-10

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


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


class TestKDJoint:
    def test_joint_eigenstate(self):
        basis = OrthonormalBasis.standard(2)
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

    def test_dimension_mismatch_rejected(self):
        from kdqlab import DimensionMismatchError

        a2 = StateVector([1.0, 0.0])
        basis3 = OrthonormalBasis.standard(3)
        with pytest.raises(DimensionMismatchError):
            kd_joint(a2, basis3, basis3)
        with pytest.raises(DimensionMismatchError):
            overlap_direct(a2, StateVector([1.0, 0.0]), Operator.identity(3))
        with pytest.raises(DimensionMismatchError):
            weak_value(a2, StateVector([0.0, 1.0]), Operator.identity(3))


class TestMarginals:
    def test_trivial(self):
        basis = OrthonormalBasis.standard(2)
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
        basis = OrthonormalBasis.standard(3)
        got = unitary_from_actions(ActionSpectrum(basis, (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(got.mat, np.eye(3), atol=TOL)

    def test_half_phase_is_z(self):
        basis = OrthonormalBasis.standard(2)
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
        got = overlap_direct(a, b, Operator.identity(3))
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
        basis = OrthonormalBasis.standard(2)
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


class TestIndexRule:
    CALLS = {
        "overlap_from_kd": lambda dist, spectrum, i: overlap_from_kd(dist, spectrum, i),
        "optimal_action m": lambda dist, spectrum, i: optimal_action(dist, i, 0),
        "optimal_action b": lambda dist, spectrum, i: optimal_action(dist, 0, i),
        "Transformation": lambda dist, spectrum, i: Transformation(dist, spectrum.phase, i),
    }

    @pytest.mark.parametrize("index", [-1, 3])
    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_out_of_range_index_is_rejected(self, call, index):
        # a negative index must not wrap around to the last row or column
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        spectrum = ActionSpectrum(basis_m, (0.0, 0.0, math.pi))
        with pytest.raises(ValueError, match=f"{index} out of range for dimension 3"):
            self.CALLS[call](dist, spectrum, index)


class TestValidation:
    """Each value type rejects malformed input with its own message."""

    CASES = {
        "KDDistribution table shape": (
            lambda a, m: KDDistribution(a, m, m, np.eye(2)),
            r"table must have shape \(3, 3\), got \(2, 2\)",
        ),
        "Operator dim 17": (lambda a, m: Operator(np.eye(17)), r"operator dimension must be in 1\.\.16, got 17"),
        "Operator NaN": (lambda a, m: Operator([[1.0, np.nan], [0.0, 1.0]]), "operator entries must be finite"),
        "OrthonormalBasis no vectors": (lambda a, m: OrthonormalBasis((), ()), "basis needs at least one vector"),
        "OrthonormalBasis label count": (
            lambda a, m: OrthonormalBasis(("1", "2"), m.vectors),
            "one label per basis vector required",
        ),
        "complete_basis no seeds": (lambda a, m: complete_basis([], ()), "at least one seed vector required"),
        "complete_basis label count": (lambda a, m: complete_basis([a], ("x", "y")), "need 3 labels, got 2"),
        "ActionSpectrum NaN phase": (
            lambda a, m: ActionSpectrum(m, (0.0, np.nan, 0.0)),
            "action phases must be finite",
        ),
        "ScenarioReport two checks": (
            lambda a, m: ScenarioReport("three-box", kd_joint(a, m, m), three_box().checks[:2]),
            "a scenario report needs at least three checks",
        ),
        "SampleBatch unequal arrays": (
            lambda a, m: SampleBatch(np.zeros(3), np.zeros(2, dtype=int), m.labels),
            "readings and b_index must both hold one entry per shot",
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_rejects_with_its_message(self, case):
        a, _, basis_m, _ = three_box_setup()
        build, message = self.CASES[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(a, basis_m)


class TestOptimalAction:
    def test_positive_entry(self):
        basis = OrthonormalBasis.standard(2)
        dist = kd_joint(StateVector([1.0, 0.0]), basis, basis)
        assert optimal_action(dist, 0, 0) == pytest.approx(0.0, abs=TOL)

    def test_three_box_negative_entry(self):
        a, _, basis_m, basis_b = three_box_setup()
        dist = kd_joint(a, basis_m, basis_b)
        assert optimal_action(dist, 2, 0) == pytest.approx(math.pi, abs=TOL)

    def test_undefined_for_vanishing_entry(self):
        basis = OrthonormalBasis.standard(2)
        dist = kd_joint(StateVector([1.0, 0.0]), basis, basis)
        with pytest.raises(UndefinedPhaseError):
            optimal_action(dist, 1, 1)

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
                assert (entry.real < 0) == (abs(optimal_action(dist, i, j)) > math.pi / 2)

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
        best_phases = tuple(
            optimal_action(dist, i, j) if abs(column[i]) > TOL else 0.0 for i in range(dim)
        )
        optimum = overlap_from_kd(dist, ActionSpectrum(basis_m, best_phases), j)
        target = float(np.sum(np.abs(column))) ** 2 / prob_b[j]
        assert optimum == pytest.approx(target, abs=1e-9)
        for _ in range(5):
            other = ActionSpectrum(basis_m, tuple(rng.uniform(-math.pi, math.pi, dim)))
            assert overlap_from_kd(dist, other, j) <= optimum + 1e-9


class TestHalfPeriodic:
    def test_examples(self):
        basis2 = OrthonormalBasis.standard(2)
        basis3 = OrthonormalBasis.standard(3)
        assert is_half_periodic(ActionSpectrum(basis2, (0.0, math.pi)))
        assert is_half_periodic(ActionSpectrum(basis3, (0.0, 0.0, math.pi)))
        assert not is_half_periodic(ActionSpectrum(basis2, (0.0, math.pi / 2)))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_half_periodic_square_proportional_to_identity(self, seed, dim):
        rng = np.random.default_rng(seed)
        basis = haar_basis(rng, dim)
        offset = rng.uniform(-math.pi, math.pi)
        phases = tuple(
            reduce_phase(offset + (math.pi if rng.integers(2) else 0.0)) for _ in range(dim)
        )
        spectrum = ActionSpectrum(basis, phases)
        assert is_half_periodic(spectrum)
        u = unitary_from_actions(spectrum)
        squared = (u @ u).mat
        scale = squared[0, 0] / np.eye(dim)[0, 0]
        np.testing.assert_allclose(squared, scale * np.eye(dim), atol=TOL)

    def test_phase_reduction(self):
        basis = OrthonormalBasis.standard(2)
        spectrum = ActionSpectrum(basis, (3 * math.pi, -math.pi))
        assert spectrum.phase[0] == pytest.approx(math.pi, abs=TOL)
        assert spectrum.phase[1] == pytest.approx(math.pi, abs=TOL)
        assert all(-math.pi < p <= math.pi for p in spectrum.phase)
        # one ulp above pi folds to exactly -pi, which the reduction pushes back to +pi
        above_pi = float(np.nextafter(math.pi, 4.0))
        assert reduce_phase(above_pi) == math.pi
        assert ActionSpectrum(OrthonormalBasis.standard(3), (above_pi, 0.0, 0.0)).phase[0] == math.pi

    def test_phase_count_mismatch(self):
        with pytest.raises(ValueError):
            ActionSpectrum(OrthonormalBasis.standard(2), (0.0,))


class TestNegativity:
    def test_commuting_case_no_negativity(self):
        basis = OrthonormalBasis.standard(2)
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
