import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar_basis, product_trace, random_state
from kdqlab import (
    DimensionMismatchError,
    Operator,
    OrthonormalBasis,
    StateVector,
    bloch_state,
    complete_basis,
    expectation,
    inner,
    pauli,
    post_selection_basis,
    projector,
    tensor_op,
    tensor_state,
)
from kdqlab.qcore import _IDENTITY, MAX_DIM

TOL = 1e-10

E0 = StateVector([1.0, 0.0])
E1 = StateVector([0.0, 1.0])
X_PLUS = StateVector.normalize([1.0, 1.0])
Y_PLUS = StateVector.normalize([1.0, 1.0j])
# a finite operator whose tensor product with itself passes the float range
BIG = Operator([[1e300, 0.0], [0.0, 1.0]])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.sampled_from([2, 3, 4])


def brute_force_inner(u, v):
    """Independent summation oracle for the inner product."""
    return sum(complex(x).conjugate() * complex(y) for x, y in zip(u, v))


class TestInner:
    def test_identity(self):
        assert inner(E0, E0) == pytest.approx(1.0)

    def test_orthogonality(self):
        assert inner(E0, E1) == pytest.approx(0.0)

    def test_x_plus_y_plus(self):
        got = inner(X_PLUS, Y_PLUS)
        assert got == pytest.approx(complex(0.5, 0.5), abs=TOL)
        assert got == pytest.approx(brute_force_inner(X_PLUS.amp, Y_PLUS.amp), abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_conjugate_symmetry_and_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        u, v = random_state(rng, dim), random_state(rng, dim)
        assert inner(u, v) == pytest.approx(inner(v, u).conjugate(), abs=TOL)
        assert inner(u, v) == pytest.approx(brute_force_inner(u.amp, v.amp), abs=TOL)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(E0, StateVector([1.0, 0.0, 0.0]))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError):
            StateVector.normalize([np.inf, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            StateVector.normalize([0.0, 0.0])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            StateVector.normalize(np.ones(17))

    def test_normalize_rejects_an_overflowing_norm(self):
        # finite amplitudes whose squares pass the float range: a clear message and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cannot normalize: the norm of the amplitudes overflows$"):
                StateVector.normalize([1e200, 1e200])

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            E0.amp[0] = 0.5

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_canonical_phase(self, seed, dim):
        rng = np.random.default_rng(seed)
        v = random_state(rng, dim)
        anchor = v.amp[np.flatnonzero(np.abs(v.amp) > 1e-12)[0]]
        assert abs(anchor.imag) <= TOL
        assert anchor.real > 0.0
        assert np.sum(np.abs(v.amp) ** 2) == pytest.approx(1.0, abs=TOL)


class TestProjector:
    def test_basis_projector(self):
        np.testing.assert_allclose(projector(E0).mat, np.diag([1.0, 0.0]), atol=TOL)

    def test_symmetric_projector(self):
        np.testing.assert_allclose(projector(X_PLUS).mat, 0.5 * np.ones((2, 2)), atol=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_hermitian_idempotent_trace_one(self, seed, dim):
        rng = np.random.default_rng(seed)
        p = projector(random_state(rng, dim)).mat
        np.testing.assert_allclose(p, p.conj().T, atol=TOL)
        np.testing.assert_allclose(p @ p, p, atol=TOL)  # matrix-multiply oracle
        assert np.trace(p) == pytest.approx(1.0, abs=TOL)


class TestTensor:
    def test_state_basis_case(self):
        np.testing.assert_allclose(tensor_state(E0, E0).amp, [1, 0, 0, 0], atol=TOL)

    def test_state_uniform(self):
        got = tensor_state(X_PLUS, X_PLUS).amp
        np.testing.assert_allclose(got, [0.5, 0.5, 0.5, 0.5], atol=TOL)

    def test_left_factor_is_slow_index(self):
        got = tensor_state(E1, E0).amp
        np.testing.assert_allclose(got, [0, 0, 1, 0], atol=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_state_norm(self, seed):
        rng = np.random.default_rng(seed)
        uv = tensor_state(random_state(rng, 2), random_state(rng, 3))
        assert np.linalg.norm(uv.amp) == pytest.approx(1.0, abs=TOL)

    def test_op_identity(self):
        got = tensor_op(Operator(np.eye(2)), Operator(np.eye(2)))
        np.testing.assert_allclose(got.mat, np.eye(4), atol=TOL)

    def test_op_double_flip(self):
        xx = tensor_op(pauli("X"), pauli("X"))
        np.testing.assert_allclose(xx.mat @ [1, 0, 0, 0], [0, 0, 0, 1], atol=TOL)

    def test_zz_eigenvalues_by_action(self):
        zz = tensor_op(pauli("Z"), pauli("Z"))
        eigen = []
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            image = zz.mat @ e
            eigen.append(float((e @ image).real))
            np.testing.assert_allclose(image, eigen[-1] * e, atol=TOL)
        assert sorted(eigen) == [-1.0, -1.0, 1.0, 1.0]

    def test_dimension_cap_applies_to_products(self):
        big = StateVector.normalize(np.ones(8))
        mid = StateVector.normalize(np.ones(4))
        with pytest.raises(ValueError, match="1..16"):
            tensor_state(big, mid)  # 32 exceeds the dense-dimension cap
        assert tensor_state(mid, mid).dim == 16
        with pytest.raises(ValueError, match="^operator dimension must be in 1..16, got 32$"):
            tensor_op(Operator(np.eye(8)), Operator(np.eye(4)))
        assert tensor_op(Operator(np.eye(4)), Operator(np.eye(4))).dim == 16

    @pytest.mark.parametrize("left", [1, 2, 3, 4])
    @pytest.mark.parametrize("right", [1, 2, 3, 4])
    def test_products_equal_np_kron_bit_for_bit(self, left, right):
        rng = np.random.default_rng(100 * left + right)
        for _ in range(5):
            u, v = random_state(rng, left), random_state(rng, right)
            a = Operator(rng.standard_normal((left, left)) + 1j * rng.standard_normal((left, left)))
            b = Operator(rng.standard_normal((right, right)) + 1j * rng.standard_normal((right, right)))
            assert np.array_equal(tensor_state(u, v).amp, np.kron(u.amp, v.amp))
            assert np.array_equal(tensor_op(a, b).mat, np.kron(a.mat, b.mat))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_op_state_consistency(self, seed):
        rng = np.random.default_rng(seed)
        u, v = random_state(rng, 2), random_state(rng, 2)
        a = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = Operator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        left = tensor_op(a, b).mat @ tensor_state(u, v).amp
        right = np.kron(a.mat @ u.amp, b.mat @ v.amp)
        np.testing.assert_allclose(left, right, atol=TOL)


class TestPauli:
    def test_actions(self):
        np.testing.assert_allclose(pauli("Z").apply(E0), E0.amp, atol=TOL)
        np.testing.assert_allclose(pauli("X").apply(E0), E1.amp, atol=TOL)
        np.testing.assert_allclose(pauli("Y").apply(E0), 1j * E1.amp, atol=TOL)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_algebra(self, axis):
        op = pauli(axis)
        np.testing.assert_allclose(op.mat, op.mat.conj().T, atol=TOL)
        assert op.is_unitary()
        assert np.trace(op.mat) == pytest.approx(0.0, abs=TOL)
        np.testing.assert_allclose(op.mat @ op.mat, np.eye(2), atol=TOL)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("W")

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_one_shared_immutable_value_per_axis(self, axis):
        op = pauli(axis)
        assert pauli(axis.lower()) is op and pauli(axis) is op
        with pytest.raises(ValueError, match="read-only"):
            op.mat[0, 0] = 5.0


class TestBlochState:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch_state(0.0, 1.3).amp, E0.amp, atol=TOL)

    def test_equator(self):
        np.testing.assert_allclose(bloch_state(math.pi / 2, 0.0).amp, X_PLUS.amp, atol=TOL)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, 2 * math.pi / 3])
    def test_z_expectation(self, theta):
        v = bloch_state(theta, 0.0)
        # expectation oracle: <Z> = |v0|^2 - |v1|^2
        oracle = abs(v.amp[0]) ** 2 - abs(v.amp[1]) ** 2
        assert expectation(pauli("Z"), v).real == pytest.approx(math.cos(theta), abs=TOL)
        assert oracle == pytest.approx(math.cos(theta), abs=TOL)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0.0, math.pi, allow_nan=False),
        phi=st.floats(0.0, 2 * math.pi, allow_nan=False),
    )
    def test_plus_one_eigenstate_of_direction(self, theta, phi):
        v = bloch_state(theta, phi)
        direction = (
            math.cos(theta) * pauli("Z").mat
            + math.sin(theta) * math.cos(phi) * pauli("X").mat
            + math.sin(theta) * math.sin(phi) * pauli("Y").mat
        )
        np.testing.assert_allclose(direction @ v.amp, v.amp, atol=1e-9)


class TestProductTrace:
    def test_single_projector(self):
        assert product_trace([projector(X_PLUS)]) == pytest.approx(1.0, abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_two_projectors_give_born_rule(self, seed, dim):
        rng = np.random.default_rng(seed)
        m, a = random_state(rng, dim), random_state(rng, dim)
        got = product_trace([projector(m), projector(a)])
        assert got == pytest.approx(abs(inner(m, a)) ** 2, abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_cyclic_invariance_hermitian(self, seed, dim):
        rng = np.random.default_rng(seed)
        ops = []
        for _ in range(3):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ops.append(Operator(0.5 * (raw + raw.conj().T)))
        a, b, c = ops
        direct = np.trace(a.mat @ b.mat @ c.mat)  # direct-multiply oracle
        assert product_trace([a, b, c]) == pytest.approx(direct, abs=1e-12)
        assert product_trace([a, b, c]) == pytest.approx(product_trace([c, a, b]), abs=1e-12)
        assert product_trace([a, b, c]) == pytest.approx(product_trace([b, c, a]), abs=1e-12)

    def test_order_matters_beyond_cyclic(self):
        rng = np.random.default_rng(12)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        a, b, c = (Operator(0.5 * (m + m.conj().T)) for m in mats)
        assert abs(product_trace([a, b, c]) - product_trace([a, c, b])) > 1e-6

    def test_empty_list(self):
        with pytest.raises(ValueError):
            product_trace([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            product_trace([Operator(np.eye(2)), Operator(np.eye(3))])


class TestOrthonormalBasis:
    def test_standard(self):
        basis = OrthonormalBasis.standard(3, ["x", "y", "z"])
        np.testing.assert_allclose(basis.matrix, np.eye(3), atol=TOL)
        assert basis.labels == ("x", "y", "z")

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalBasis(("a", "b"), (X_PLUS, StateVector.normalize([1.0, 0.5])))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            OrthonormalBasis(("a", "a"), (E0, E1))

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(("a",), (StateVector([1.0, 0.0]),))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_completeness(self, seed, dim):
        rng = np.random.default_rng(seed)
        basis = haar_basis(rng, dim)
        resolution = sum(projector(v).mat for v in basis.vectors)
        np.testing.assert_allclose(resolution, np.eye(dim), atol=TOL)


class TestBasisCompletion:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_complete_basis_extends_seed(self, seed, dim):
        rng = np.random.default_rng(seed)
        seed_vec = random_state(rng, dim)
        basis = complete_basis([seed_vec], tuple(f"k{j}" for j in range(dim)))
        np.testing.assert_allclose(basis.vectors[0].amp, seed_vec.amp, atol=TOL)
        assert basis.dim == dim

    @pytest.mark.parametrize("n_seeds", [1, 2, 3])
    def test_seed_vectors_are_kept_as_given(self, n_seeds):
        seeds = haar_basis(np.random.default_rng(7), 3, "h").vectors[:n_seeds]
        basis = complete_basis(seeds, ("k0", "k1", "k2"))
        assert all(kept is seed for kept, seed in zip(basis.vectors, seeds))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=MAX_DIM),
        kind=st.sampled_from(["haar", "standard", "near-standard"]),
    )
    def test_standard_directions_always_complete_the_basis(self, seed, dim, kind):
        # k < d kept vectors leave the d standard directions residuals whose squared norms sum to d - k >= 1;
        # seeds along, or within 1e-7 of, standard directions make the skipped candidates that sum counts
        rng = np.random.default_rng(seed)
        n_seeds = int(rng.integers(1, dim + 1))
        if kind == "haar":
            seed_vectors = haar_basis(rng, dim, "h").vectors[:n_seeds]
        else:
            columns = np.eye(dim, dtype=complex)[:, rng.permutation(dim)[:n_seeds]]
            if kind == "near-standard":
                noise = rng.standard_normal((dim, n_seeds)) + 1j * rng.standard_normal((dim, n_seeds))
                columns += 1e-7 * rng.uniform(0.0, 1.0, n_seeds) * noise / np.linalg.norm(noise, axis=0)
                columns, _ = np.linalg.qr(columns)
            seed_vectors = [StateVector(np.exp(2j * math.pi * rng.random()) * col) for col in columns.T]
        basis = complete_basis(seed_vectors, tuple(f"k{j}" for j in range(dim)))
        assert basis.dim == dim
        assert all(kept is given for kept, given in zip(basis.vectors, seed_vectors))

    def test_deterministic(self):
        b1 = complete_basis([X_PLUS], ("p", "q"))
        b2 = complete_basis([X_PLUS], ("p", "q"))
        np.testing.assert_allclose(b1.matrix, b2.matrix, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, dim=dims)
    def test_post_selection_basis_dead_directions(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = random_state(rng, dim), random_state(rng, dim)
        basis = post_selection_basis(a, b, tuple(f"k{j}" for j in range(dim)))
        np.testing.assert_allclose(basis.vectors[0].amp, b.amp, atol=TOL)
        for vec in basis.vectors[2:]:
            assert abs(inner(vec, a)) <= 1e-9

    @pytest.mark.parametrize("rest", [1.01e-6, 1.5e-6, 3e-6])
    def test_post_selection_basis_nearly_parallel_states(self, rest):
        # a = sqrt(1 - r^2) e^{i phi} b + r w with w orthogonal to b: the remainder a - b<b|a> has norm r just
        # above the 1e-6 cut. Projected off b once, its rounding left a b component of about u / r after
        # normalizing, above TOL, and 76 to 202 of 300 such cases per level failed as "not orthonormal"
        rng = np.random.default_rng(32)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            b = random_state(rng, dim)
            w = random_state(rng, dim).amp
            w = w - b.amp * np.vdot(b.amp, w)
            w = w / np.linalg.norm(w)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            a = StateVector.normalize(math.sqrt(1.0 - rest**2) * phase * b.amp + rest * w)
            basis = post_selection_basis(a, b, tuple(f"k{j}" for j in range(dim)))
            assert basis.vectors[0] is b
            assert abs(inner(basis.vectors[1], b)) <= 1e-15
            # the second vector is the normalized remainder, up to its canonical global phase
            assert abs(inner(basis.vectors[1], StateVector.normalize(w))) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rest", [5e-7, 9e-7, 1e-6, 1.01e-6, 2e-6, 1e-3, 0.5])
    def test_further_vectors_carry_the_dropped_remainder_or_rounding(self, rest):
        # |rest| <= 1e-6: the remainder is dropped as parallel, so every vector after b is a completion vector,
        # and together they carry its weight |rest|^2 of a's (up to a's rounding, about u / |rest| relative).
        # Above the cut the vectors after the second are orthogonal to a's span with b: each overlap with a is
        # rounding, measured at most 2.1u over 300 cases per level, so each weight lies below (4u)^2
        u = 2.0**-53
        rng = np.random.default_rng(33)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            b = random_state(rng, dim)
            w = random_state(rng, dim).amp
            w = w - b.amp * np.vdot(b.amp, w)
            w = w / np.linalg.norm(w)
            a = StateVector.normalize(math.sqrt(1.0 - rest**2) * b.amp + rest * w)
            weights = abs(post_selection_basis(a, b, tuple(f"k{j}" for j in range(dim))).matrix.conj() @ a.amp) ** 2
            if rest <= 1e-6:
                assert float(weights[1:].sum()) == pytest.approx(rest**2, rel=1e-8)
            else:
                assert float(weights[2:].max(initial=0.0)) <= (4 * u) ** 2

    def test_null_vectors_of_three_box_and_cheshire_cat_carry_rounding_alone(self):
        u = 2.0**-53
        for d in (3, 4):
            a, b = StateVector.normalize([1.0] * d), StateVector.normalize([1.0] * (d - 1) + [-1.0])
            basis = post_selection_basis(a, b, tuple(f"k{j}" for j in range(d)))
            assert float((abs(basis.matrix[2:].conj() @ a.amp) ** 2).max()) <= (4 * u) ** 2

    def test_post_selection_basis_parallel_states(self):
        basis = post_selection_basis(E0, E0, ("b", "n"))
        np.testing.assert_allclose(basis.vectors[0].amp, E0.amp, atol=TOL)
        assert abs(inner(basis.vectors[1], E0)) <= TOL


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.ones((2, 3)))

    def test_apply_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Operator(np.eye(3)).apply(E0)

    def test_is_unitary(self):
        assert Operator(np.eye(4)).is_unitary()
        assert not projector(E0).is_unitary()

    def test_is_unitary_is_false_for_an_overflowing_product(self):
        # finite entries whose Gram product passes the float range: False, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not Operator([[1e300, 0.0], [0.0, 1.0]]).is_unitary()
            assert not Operator([[1e300, 1e300], [0.0, 1.0]]).is_unitary()


class TestValidation:
    """Each value class of qcore rejects malformed input with its own exception and message."""

    CASES = {
        "StateVector size 0": (lambda: StateVector([]), ValueError, r"state dimension must be in 1\.\.16, got 0"),
        "StateVector size 17": (
            lambda: StateVector(np.ones(17) / math.sqrt(17)),
            ValueError,
            r"state dimension must be in 1\.\.16, got 17",
        ),
        "StateVector NaN": (lambda: StateVector([np.nan, 0.0]), ValueError, "state amplitudes must be finite"),
        "StateVector inf": (lambda: StateVector([1.0, np.inf]), ValueError, "state amplitudes must be finite"),
        "StateVector inf pair": (
            lambda: StateVector([np.inf, -np.inf * 1j]),
            ValueError,
            "state amplitudes must be finite",
        ),
        "StateVector unnormalized": (
            lambda: StateVector([1.0, 1.0]),
            ValueError,
            r"state vector is not normalized: sum \|amp\|\^2 = 2\.0",
        ),
        "StateVector norm overflows": (
            lambda: StateVector([1e200, 0.0]),
            ValueError,
            r"state vector is not normalized: sum \|amp\|\^2 = inf",
        ),
        "StateVector modulus overflows": (
            lambda: StateVector([1.5e308 + 1.5e308j, 0.0]),
            ValueError,
            r"state vector is not normalized: sum \|amp\|\^2 = inf",
        ),
        "normalize NaN": (lambda: StateVector.normalize([np.nan, 1.0]), ValueError, "state amplitudes must be finite"),
        "normalize zero vector": (lambda: StateVector.normalize([0.0, 0.0]), ValueError, "cannot normalize a zero vector"),
        "normalize norm overflows": (
            lambda: StateVector.normalize([1e200, 1e200]),
            ValueError,
            "cannot normalize: the norm of the amplitudes overflows",
        ),
        "normalize re.re + im.im overflows": (
            # each dot, 1.44e308, is finite; their sum is not
            lambda: StateVector.normalize([1.2e154 + 1.2e154j]),
            ValueError,
            "cannot normalize: the norm of the amplitudes overflows",
        ),
        "normalize norm underflows": (
            lambda: StateVector.normalize([1e-170, 0.0]),
            ValueError,
            "cannot normalize a zero vector",
        ),
        "normalize size 17": (
            lambda: StateVector.normalize(np.ones(17)),
            ValueError,
            r"state dimension must be in 1\.\.16, got 17",
        ),
        "Operator not square": (
            lambda: Operator(np.ones((2, 3))),
            ValueError,
            r"operator must be a square matrix, got shape \(2, 3\)",
        ),
        "Operator dim 0": (lambda: Operator(np.zeros((0, 0))), ValueError, r"operator dimension must be in 1\.\.16, got 0"),
        "Operator dim 17": (lambda: Operator(np.eye(17)), ValueError, r"operator dimension must be in 1\.\.16, got 17"),
        "Operator NaN": (lambda: Operator([[1.0, np.nan], [0.0, 1.0]]), ValueError, "operator entries must be finite"),
        "Operator inf": (lambda: Operator([[1.0, 0.0], [-np.inf, 1.0]]), ValueError, "operator entries must be finite"),
        "tensor_op overflows": (lambda: tensor_op(BIG, BIG), ValueError, "operator entries must be finite"),
        "Operator.apply overflows": (
            lambda: Operator([[1.5e308] * 2] * 2).apply(X_PLUS),
            ValueError,
            "operator image of the state overflows",
        ),
        "expectation image overflows": (
            lambda: expectation(Operator([[1.5e308] * 2] * 2), X_PLUS),
            ValueError,
            "operator image of the state overflows",
        ),
        "expectation value overflows": (
            lambda: expectation(Operator([[1e308] * 2] * 2), X_PLUS),
            ValueError,
            "expectation value overflows",
        ),
        "product_trace product overflows": (
            lambda: product_trace([Operator([[1e300] * 2] * 2)] * 2),
            ValueError,
            "product trace overflows",
        ),
        "product_trace sum overflows": (
            lambda: product_trace([Operator(np.diag([1.5e308, 1.5e308]))]),
            ValueError,
            "product trace overflows",
        ),
        "OrthonormalBasis no vectors": (
            lambda: OrthonormalBasis((), ()),
            ValueError,
            "basis needs at least one vector",
        ),
        "OrthonormalBasis incomplete": (
            lambda: OrthonormalBasis(("a",), (E0,)),
            ValueError,
            "basis of a 2-dimensional space needs 2 vectors, got 1",
        ),
        "OrthonormalBasis label count": (
            lambda: OrthonormalBasis(("a", "b", "c"), (E0, E1)),
            ValueError,
            "one label per basis vector required",
        ),
        "OrthonormalBasis duplicate labels": (
            lambda: OrthonormalBasis(("a", "a"), (E0, E1)),
            ValueError,
            r"basis labels must be unique, got \('a', 'a'\)",
        ),
        "OrthonormalBasis mixed dimensions": (
            lambda: OrthonormalBasis(("a", "b"), (E0, StateVector([0.0, 0.0, 1.0]))),
            DimensionMismatchError,
            r"dimension mismatch: \(2, 3\)",
        ),
        "OrthonormalBasis not orthonormal": (
            lambda: OrthonormalBasis(("a", "b"), (E0, X_PLUS)),
            ValueError,
            r"vectors are not orthonormal \(max \|<v_i\|v_j> - delta_ij\| = 7\.071e-01\)",
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_rejects_with_its_message(self, case):
        build, error, message = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the message must come before any numpy warning
            with pytest.raises(error, match=f"^{message}$") as caught:
                build()
        assert type(caught.value) is error


# The constructors decide with one BLAS norm and a shared identity; these formulas are the plain
# ones they replace. A state's squared norm summed both ways differed by at most 3 ulps of 1.0 over
# 200,000 near-unit vectors of dims 1-16, so the state test leaves out the 8-ulp band (1.8e-15)
# on either side of the tolerance. The Gram checks form the same product as the plain formula
# and subtract an equal identity, so their verdicts must agree with no band at all.
ULP = float(np.finfo(float).eps)
STATE_BAND = 8 * ULP
# non-finite entries, and finite ones whose square or modulus passes the float range
BAD_ENTRIES = [np.nan, np.inf, -np.inf, 1e200, complex(0.0, np.nan), complex(0.0, -np.inf), complex(0.0, 1e200),
               1.5e308 + 1.5e308j]


def plain_state_outcome(amplitudes):
    """The plain formulas' outcome for ``StateVector(amplitudes)``: its message, or None to accept."""
    arr = np.array(amplitudes, dtype=complex)
    if not np.isfinite(arr).all():
        return "state amplitudes must be finite"
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(abs(arr) ** 2))
    return None if abs(norm_sq - 1) <= TOL else f"state vector is not normalized: sum |amp|^2 = {norm_sq}"


def plain_normalize(amplitudes):
    """``StateVector.normalize`` as written with ``np.linalg.norm``: the amplitudes it built, or its message."""
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(arr).all():
        return "state amplitudes must be finite"
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm):
        return "cannot normalize: the norm of the amplitudes overflows"
    if norm <= 1e-12:
        return "cannot normalize a zero vector"
    arr = arr / norm
    anchor = arr[np.flatnonzero(np.abs(arr) > 1e-12)[0]]
    amp = arr * (anchor.conjugate() / abs(anchor))
    return amp if amp.size <= 16 else f"state dimension must be in 1..16, got {amp.size}"


def plain_gram_defect(gram):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(abs(gram - np.eye(len(gram))).max())


def outcome(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestOnePassVerdicts:
    """The lean accept paths give the verdicts and messages of the plain formulas."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=16),
        offset=st.one_of(
            st.floats(min_value=-3 * TOL, max_value=3 * TOL),
            st.builds(lambda sign, k: sign * TOL + k * ULP, st.sampled_from([-1.0, 1.0]), st.integers(-64, 64)),
        ),
    )
    def test_state_norm(self, seed, dim, offset):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amp = z / np.linalg.norm(z) * math.sqrt(1.0 + offset)
        norm_sq = float(np.sum(abs(amp) ** 2))
        assume(abs(abs(norm_sq - 1) - TOL) > STATE_BAND)
        assert outcome(lambda: StateVector(amp)) == plain_state_outcome(amp)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=16),
        value=st.sampled_from(BAD_ENTRIES),
        scale=st.sampled_from([1.0, 1e-200, 1e200]),
    )
    def test_state_with_a_non_finite_or_huge_entry(self, seed, dim, value, scale):
        # the same exception type and message as before, and no numpy warning (tier-1 makes one an error)
        rng = np.random.default_rng(seed)
        amp = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * scale
        amp[rng.integers(dim)] = value
        expected = plain_state_outcome(amp)
        assert expected is not None
        with pytest.raises(ValueError) as caught:
            StateVector(amp)
        assert type(caught.value) is ValueError and str(caught.value) == expected

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, dim=st.integers(min_value=1, max_value=16), exponent=st.floats(min_value=-11.5, max_value=-8.5))
    def test_orthonormal_basis(self, seed, dim, exponent):
        # each vector is tilted by about 10^exponent and renormalized: the Gram defect lands around TOL
        rng = np.random.default_rng(seed)
        basis = haar_basis(rng, dim)
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        vectors = tuple(StateVector.normalize(row) for row in basis.matrix + 10.0**exponent * noise)
        mat = np.array([v.amp for v in vectors])
        defect = plain_gram_defect(mat.conj() @ mat.T)
        expected = None if defect <= TOL else f"vectors are not orthonormal (max |<v_i|v_j> - delta_ij| = {defect:.3e})"
        assert outcome(lambda: OrthonormalBasis(basis.labels, vectors)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=1, max_value=16),
        size=st.one_of(st.floats(min_value=-11.5, max_value=-8.5).map(lambda e: 10.0**e), st.sampled_from([1e200, 1e300])),
    )
    def test_is_unitary(self, seed, dim, size):
        rng = np.random.default_rng(seed)
        mat = haar_basis(rng, dim).matrix + size * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = plain_gram_defect(mat.conj().T @ mat) <= TOL
        assert Operator(mat).is_unitary() is expected

    @settings(max_examples=400, deadline=None)
    @given(
        seed=seeds,
        dim=st.integers(min_value=0, max_value=17),
        exponent=st.one_of(st.integers(-330, 308), st.sampled_from([-160, -154, 0, 153, 154, 155])),
        zeros=st.integers(min_value=0, max_value=17),
        special=st.sampled_from([None, None, None, np.nan, np.inf, -np.inf, complex(0.0, np.nan), 0.0, 1e-13]),
        real=st.booleans(),
    )
    def test_normalize(self, seed, dim, exponent, zeros, special, real):
        # the same amplitude bytes as np.linalg.norm gave, or the same message, and no numpy warning;
        # leading zeros move the phase anchor, and the exponents reach underflow and overflow
        rng = np.random.default_rng(seed)
        z = (rng.standard_normal(dim) + (0.0 if real else 1j) * rng.standard_normal(dim)).astype(complex)
        with np.errstate(over="ignore"):  # near 1e308 an entry may overflow to inf: one more non-finite input
            amp = z * 10.0**exponent
        amp[: min(zeros, dim)] = 0.0
        if special is not None and dim:
            amp[rng.integers(dim)] = special
        expected = plain_normalize(amp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = StateVector.normalize(amp).amp.tobytes()
            except ValueError as exc:
                got = str(exc)
        assert got == (expected if isinstance(expected, str) else expected.tobytes())

    def test_identities_are_shared_and_read_only(self):
        # one table built at import: entry n is the complex n x n identity, for every dimension a value may have
        assert len(_IDENTITY) == MAX_DIM + 1
        for dim in range(1, MAX_DIM + 1):
            eye = _IDENTITY[dim]
            assert eye.dtype == complex and eye.shape == (dim, dim)
            assert np.array_equal(eye, np.eye(dim))
            with pytest.raises(ValueError, match="read-only"):
                eye[0, 0] = 2.0
