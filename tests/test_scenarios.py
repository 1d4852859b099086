import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdqlab
from helpers import chsh_cell_value, entry
from kdqlab import (
    Check,
    Operator,
    StateVector,
    bell_scenario,
    bloch_state,
    build,
    cheshire_cat,
    complete_basis,
    expectation,
    hardy,
    kd_joint,
    leggett_garg,
    negativity,
    pauli,
    peres_mermin_swap,
    tensor_op,
    three_box,
)
from kdqlab.scenarios import (
    _CHSH_CELLS,
    _CHSH_ORDER,
    _bell_state,
    _chsh_target,
    _eigenvalues_of,
    _pauli_pair,
    _product_basis,
)

TOL = 1e-10
LAW = "column b follows the half-periodic law e^(i phase) P(m|a) S"


def check_values(report):
    """Each check's engine value, by check name."""
    return {c.name: c.got for c in report.checks}


ALL_BUILDERS = {
    "leggett-garg": lambda: leggett_garg(math.pi / 3),
    "three-box": three_box,
    "cheshire-cat": cheshire_cat,
    "hardy": hardy,
    "peres-mermin": peres_mermin_swap,
    "bell": lambda: bell_scenario(math.pi / 4),
}


@pytest.fixture(scope="module")
def reports():
    return {name: builder() for name, builder in ALL_BUILDERS.items()}


class TestCheck:
    """``passed`` is derived from the values; it is never a constructor argument."""

    def test_tolerance_decides(self):
        assert Check("x", 1.0, 1.0 + 2e-10).passed is False
        assert Check("x", 1.0, 1.0 + 5e-11).passed is True

    def test_imaginary_part_miss_fails(self):
        assert Check("x", complex(0.5, 0.0), complex(0.5, 2e-10)).passed is False

    def test_flag_form(self):
        assert Check("flag", 1.0, float(True), 0.0).passed is True
        assert Check("flag", 1.0, float(False), 0.0).passed is False

    def test_passed_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Check("x", 1.0, 2.0, 1e-10, True)
        with pytest.raises(TypeError):
            Check("x", 1.0, 2.0, passed=True)


class TestReportContract:
    def test_all_pass(self, reports):
        for name, report in reports.items():
            failed = [c.name for c in report.checks if not c.passed]
            assert report.passed, f"{name}: failing checks {failed}"

    def test_at_least_three_checks(self, reports):
        for report in reports.values():
            assert len(report.checks) >= 3

    def test_builders_use_the_engine(self, reports):
        for name, report in reports.items():
            rebuilt = kd_joint(report.kd.state_a, report.kd.basis_m, report.kd.basis_b)
            np.testing.assert_allclose(rebuilt.table, report.kd.table, atol=0.0, err_msg=name)

    def test_negative_entries_have_large_action_phases(self, reports):
        for name, report in reports.items():
            table = report.kd.table
            for i in range(table.shape[0]):
                for j in range(table.shape[1]):
                    if table[i, j].real < -TOL:
                        phase = abs(float(np.angle(table[i, j])))
                        assert phase >= math.pi / 2, f"{name} entry ({i},{j})"

    def test_violated_inequality_reported(self, reports):
        for name, report in reports.items():
            assert report.violated_inequality, name

    def test_every_transformation_gets_the_generic_checks(self, reports):
        for name, report in reports.items():
            names = [c.name for c in report.checks]
            assert sum(n.endswith(" is half-periodic") for n in names) == 1, name
            assert "overlap identity agrees with the direct overlap" in names, name

    def test_half_periodic_law_where_the_transformation_maps_a_onto_b(self, reports):
        for name, report in reports.items():
            law = [c for c in report.checks if c.name == LAW]
            if name in ("hardy", "bell"):  # direct overlaps 3/4 and (1 + 1/sqrt 2) / 2
                assert law == [], name
            else:
                assert len(law) == 1 and law[0].passed and law[0].got <= 1e-14, name


class TestLeggettGarg:
    def test_maximal_violation_value(self):
        report = leggett_garg(math.pi / 3)
        assert entry(report.kd, "-1", "+1").real == pytest.approx(-0.125, abs=TOL)

    def test_optimal_action_at_negative_entry(self):
        report = leggett_garg(math.pi / 3)
        i = report.kd.basis_m.labels.index("-1")
        j = report.kd.basis_b.labels.index("+1")
        assert float(np.angle(report.kd.table[i, j])) == pytest.approx(math.pi, abs=TOL)

    def test_zero_at_right_angle(self):
        report = leggett_garg(math.pi / 2)
        assert entry(report.kd, "-1", "+1").real == pytest.approx(0.0, abs=TOL)
        assert report.violated_inequality is None

    def test_quarter_angle_value(self):
        # closed-form oracle evaluated numerically
        c = math.cos(math.pi / 4)
        expected = 0.5 * c * (c - 1.0)
        assert expected == pytest.approx(-0.103553390593, abs=1e-12)
        report = leggett_garg(math.pi / 4)
        assert entry(report.kd, "-1", "+1").real == pytest.approx(expected, abs=TOL)

    def test_routes_agree_for_random_angles(self):
        rng = np.random.default_rng(20240817)
        route_names = (
            "joint probability via expectation values",
            "joint probability via transformation overlap",
            "joint probability equals Re of the joint table entry",
        )
        for theta in rng.uniform(1e-3, math.pi - 1e-3, 50):
            report = leggett_garg(float(theta))
            assert report.passed
            values = {c.name: complex(c.got).real for c in report.checks if c.name in route_names}
            values["closed form"] = 0.5 * math.cos(theta) * (math.cos(theta) - 1.0)
            got = list(values.values())
            assert max(got) - min(got) <= TOL
            negative = entry(report.kd, "-1", "+1").real < -TOL
            assert negative == (theta < math.pi / 2)
            assert [c.passed for c in report.checks if c.name == LAW] == [True]

    def test_grid_search_finds_the_maximum_violation(self):
        # two-stage scan so the located value resolves the quadratic minimum
        def joint_probability(t):  # P(spin_m = -1, spin_b = +1 | spin_a = +1) for spins at 0, t, 2 t
            basis_m, basis_b = (complete_basis([bloch_state(theta)], ("+1", "-1")) for theta in (t, 2 * t))
            return float(kd_joint(bloch_state(0.0), basis_m, basis_b).table[1, 0].real)

        coarse = np.linspace(0.05, math.pi / 2 - 0.05, 2001)
        values = [joint_probability(t) for t in coarse]
        best = coarse[int(np.argmin(values))]
        fine = np.linspace(best - 2e-3, best + 2e-3, 2001)
        values = [joint_probability(t) for t in fine]
        best = float(fine[int(np.argmin(values))])
        assert abs(math.cos(best) - 0.5) <= 1e-4
        assert min(values) == pytest.approx(-0.125, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 4.0])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(ValueError):
            leggett_garg(theta)


class TestThreeBox:
    def test_column_and_marginal(self):
        report = three_box()
        assert entry(report.kd, "1", "b") == pytest.approx(1.0 / 9.0, abs=TOL)
        assert entry(report.kd, "2", "b") == pytest.approx(1.0 / 9.0, abs=TOL)
        assert entry(report.kd, "3", "b") == pytest.approx(-1.0 / 9.0, abs=TOL)
        assert complex(report.kd.table[:, 0].sum()) == pytest.approx(1.0 / 9.0, abs=TOL)

    def test_negativity_summary(self):
        report = three_box()
        assert report.negativity.total_negativity == pytest.approx(1.0 / 9.0, abs=TOL)
        assert report.negativity.min_real == pytest.approx(-1.0 / 9.0, abs=TOL)
        assert report.negativity.argmin == ("3", "b")


class TestCheshireCat:
    def test_published_values(self):
        report = cheshire_cat()
        for label, value in (("p1H", 0.125), ("p1V", 0.125), ("p2H", 0.125), ("p2V", -0.125)):
            assert entry(report.kd, label, "b") == pytest.approx(value, abs=TOL)

    def test_conditional_weights(self):
        report = cheshire_cat()
        by_name = {c.name: c for c in report.checks}
        assert complex(by_name["conditional weight of path p2"].got).real == pytest.approx(0.0, abs=TOL)
        assert complex(by_name["conditional polarization difference in p2"].got).real == pytest.approx(1.0, abs=TOL)

    def test_negativity_location(self):
        report = cheshire_cat()
        assert report.negativity.min_real == pytest.approx(-0.125, abs=TOL)
        assert report.negativity.argmin == ("p2V", "b")


class TestHardy:
    def test_published_values(self):
        report = hardy()
        assert entry(report.kd, "O1O2", "b1b2") == pytest.approx(-1.0 / 12.0, abs=TOL)
        assert entry(report.kd, "O1I2", "b1b2") == pytest.approx(1.0 / 12.0, abs=TOL)
        assert entry(report.kd, "I1O2", "b1b2") == pytest.approx(1.0 / 12.0, abs=TOL)
        assert entry(report.kd, "I1I2", "b1b2") == pytest.approx(0.0, abs=TOL)

    def test_post_selection_probability(self):
        report = hardy()
        j = report.kd.basis_b.labels.index("b1b2")
        assert float(report.kd.table[:, j].sum().real) == pytest.approx(1.0 / 12.0, abs=TOL)

    def test_overlap_and_product_relation(self):
        report = hardy()
        by_name = {c.name: c for c in report.checks}
        assert complex(by_name["overlap after the double phase flip = 3/4"].got).real == pytest.approx(0.75, abs=TOL)
        assert complex(by_name["signed joint sum = -sqrt(P(b|a) P(b|U a)) = -1/4"].got).real == pytest.approx(
            -0.25, abs=TOL
        )
        assert -math.sqrt((1.0 / 12.0) * 0.75) == pytest.approx(-0.25, abs=1e-15)


class TestPeresMermin:
    def test_published_values(self):
        report = peres_mermin_swap()
        assert entry(report.kd, "S", "(+1,+1)") == pytest.approx(-0.125, abs=TOL)
        for label in ("Tx", "Ty", "Tz"):
            assert entry(report.kd, label, "(+1,+1)") == pytest.approx(0.125, abs=TOL)

    def test_product_relations_by_application(self):
        report = peres_mermin_swap()
        by_name = {c.name: c for c in report.checks}
        assert complex(by_name["(X1X2)(Y1Y2) = -(Z1Z2) on all four swap eigenvectors"].got).real <= TOL
        assert complex(by_name["(X1Y2)(Y1X2) = Z1Z2 on all eight product-context states"].got).real <= TOL

    def test_eigenvalues_equal_one_application_per_vector_bit_for_bit(self):
        # the batched products give the bits of applying each operator to each vector on its own
        report = peres_mermin_swap()
        pairs = [(_pauli_pair(*axes), report.kd.basis_m.matrix) for axes in ("XX", "YY", "ZZ")]
        pairs += [(_pauli_pair("X", "Y"), report.kd.state_a.amp[None]), (_pauli_pair("Y", "X"), report.kd.basis_b.matrix[:1])]
        for op, vectors in pairs:
            one_by_one = [complex(np.vdot(v, op.mat @ v)).real for v in vectors]
            assert _eigenvalues_of(op, vectors).tobytes() == np.array(one_by_one).tobytes()

    @pytest.mark.parametrize(
        "op, vectors, message",
        [
            (pauli("X"), [[math.sqrt(0.5), math.sqrt(0.5)], [1.0, 0.0]], "state is not an eigenvector of the operator"),
            (Operator(np.diag([1.0, 1j])), [[1.0, 0.0], [0.0, 1.0]], "eigenvalue is not real: 1j"),
        ],
    )
    def test_eigenvalue_checks_keep_their_messages(self, op, vectors, message):
        # the first vector passes both checks, the second fails one of them
        with pytest.raises(ValueError, match=f"^{message}$"):
            _eigenvalues_of(op, np.array(vectors, dtype=complex))

    def test_conditional_averages(self):
        report = peres_mermin_swap()
        by_name = {c.name: c for c in report.checks}
        for name in ("conditional average of X1X2", "conditional average of Y1Y2", "conditional average of Z1Z2"):
            assert complex(by_name[name].got).real == pytest.approx(1.0, abs=TOL)


class TestBell:
    def test_bell_state_theta_zero_expectations(self):
        a = _bell_state(0.0)[0]
        x, y = pauli("X"), pauli("Y")
        assert expectation(tensor_op(x, y), a).real == pytest.approx(1.0, abs=TOL)
        assert expectation(tensor_op(y, x), a).real == pytest.approx(1.0, abs=TOL)
        assert expectation(tensor_op(x, x), a).real == pytest.approx(0.0, abs=TOL)
        assert expectation(tensor_op(y, y), a).real == pytest.approx(0.0, abs=TOL)

    def test_bell_state_right_angle_expectations(self):
        a = _bell_state(math.pi / 2)[0]
        x, y = pauli("X"), pauli("Y")
        assert expectation(tensor_op(x, x), a).real == pytest.approx(1.0, abs=TOL)
        assert expectation(tensor_op(y, y), a).real == pytest.approx(-1.0, abs=TOL)

    def test_seed_projection_never_vanishes(self):
        # _bell_state projects the one seed |++>: its projection has norm^2 (1 + sin theta) / 4 >= 1/4
        x, y = pauli("X"), pauli("Y")
        ident = np.eye(4)
        plus_plus = np.full(4, 0.5, dtype=complex)
        for theta in np.linspace(0.0, math.pi / 2, 50):
            a1 = math.cos(theta) * tensor_op(x, y).mat + math.sin(theta) * tensor_op(x, x).mat
            a2 = math.cos(theta) * tensor_op(y, x).mat - math.sin(theta) * tensor_op(y, y).mat
            image = 0.25 * (ident + a1) @ (ident + a2) @ plus_plus
            norm_sq = float(np.vdot(image, image).real)
            assert norm_sq == pytest.approx((1.0 + math.sin(theta)) / 4.0, abs=1e-12), theta
            assert norm_sq >= 0.25 - 1e-12, theta
            state = _bell_state(float(theta))[0]
            np.testing.assert_allclose(state.amp, StateVector.normalize(image).amp, atol=1e-12)
            np.testing.assert_allclose(a1 @ state.amp, state.amp, atol=TOL)
            np.testing.assert_allclose(a2 @ state.amp, state.amp, atol=TOL)

    def test_chsh_maximum_via_expectation_oracle(self):
        a = _bell_state(math.pi / 4)[0]
        x, y = pauli("X"), pauli("Y")
        k_op = Operator(tensor_op(x, x).mat + tensor_op(x, y).mat + tensor_op(y, x).mat - tensor_op(y, y).mat)
        assert expectation(k_op, a).real == pytest.approx(2.0 * math.sqrt(2.0), abs=TOL)
        got = check_values(bell_scenario(math.pi / 4))
        assert got["<K> = 2 (sin + cos)"] == pytest.approx(expectation(k_op, a).real, abs=TOL)

    @pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-9, 1e-6, math.radians(0.001), 1e-3])
    def test_half_periodic_law_only_where_the_flip_maps_a_onto_b(self, theta):
        # 1 - |<b|U|a>|^2 is about theta^2 / 4 but the law's deviation about theta / 8
        law = [c for c in bell_scenario(theta).checks if c.name == LAW]
        if theta <= 1e-12:
            assert len(law) == 1 and law[0].passed, theta
        else:
            assert law == [], theta

    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2])
    def test_table_reproduced(self, theta):
        report = bell_scenario(theta)
        got = check_values(report)
        assert got["joint table matches the closed-form table"] <= TOL
        assert float(np.max(np.abs(report.kd.table.imag))) <= TOL
        p_k_minus2 = got["P(K=-2) = (1 - sin - cos) / 2"]
        assert p_k_minus2 == pytest.approx(0.5 * (1.0 - math.sin(theta) - math.cos(theta)), abs=TOL)
        assert got["<K> = 2 (sin + cos)"] == pytest.approx(2.0 * (math.sin(theta) + math.cos(theta)), abs=TOL)

    def test_theta_zero_column(self):
        report = bell_scenario(0.0)
        column = report.kd.table[:, report.kd.basis_b.labels.index("(+1,+1)")]
        expected = {"(-1,-1)": -0.125, "(+1,-1)": 0.125, "(-1,+1)": 0.125, "(+1,+1)": 0.125}
        for label, value in expected.items():
            i = report.kd.basis_m.labels.index(label)
            assert complex(column[i]) == pytest.approx(value, abs=TOL)

    def test_negative_mass_exactly_when_bound_violated(self):
        for theta in np.linspace(0.0, math.pi / 2, 31):
            got = check_values(bell_scenario(float(theta)))
            violated = math.sin(theta) + math.cos(theta) > 1.0 + 1e-12
            assert (got["P(K=-2) = (1 - sin - cos) / 2"] < -TOL) == violated

    @pytest.mark.parametrize(
        "thetas",
        [
            np.linspace(4.99e-11, 5.01e-11, 20001),  # <K> - 2 crosses TOL near theta = 5e-11
            math.pi / 2 - 5e-11 + np.linspace(-2e-15, 2e-15, 4001),  # and near pi/2 - 5e-11
        ],
        ids=["near-5e-11", "near-pi/2-5e-11"],
    )
    def test_flag_check_holds_across_the_switching_angle(self, thetas):
        # the two flags read sums rounded apart; across each switch the check passes, inside its derived
        # band or outside it. Without the band, the flags split at 89 and 1,111 of these angles
        name = "P(K=-2) < 0 exactly when <K> > 2"
        failed = [t for t in thetas.tolist() if not next(c for c in bell_scenario(t).checks if c.name == name).passed]
        assert failed == []

    def test_cell_values_are_plus_minus_two(self):
        # _CHSH_ORDER lists all four sign pairs, so the table covers every (m, b) combination
        expected = [[chsh_cell_value(m, b) for b in _CHSH_ORDER] for m in _CHSH_ORDER]
        assert _CHSH_CELLS.tolist() == expected
        assert set(_CHSH_CELLS.ravel().tolist()) == {-2, 2}

    def test_target_table_matches_the_per_cell_closed_form_bit_for_bit(self):
        def entry(theta, m, b):
            # the parity rule one cell at a time, in the arithmetic order of the table's closed form
            (m1, m2), (b1, b2) = m, b
            if m1 * m2 == -1 and b1 * b2 == +1:
                return (1.0 - math.sin(theta)) / 8.0
            if m1 * m2 == +1 and b1 * b2 == -1:
                return (1.0 + math.sin(theta)) / 8.0
            return (m1 * b2) * math.cos(theta) / 8.0

        for theta in np.linspace(0.0, math.pi / 2, 1001).tolist():
            expected = np.array([[entry(theta, m, b) for b in _CHSH_ORDER] for m in _CHSH_ORDER])
            got = _chsh_target(theta)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), theta

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 0.1])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(ValueError):
            _bell_state(theta)


PM_ORDER = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
# the +/-1 eigenstates and the matrices of the Paulis, written out apart from the package's own
EIGEN = {
    "X": {+1: [1.0, 1.0], -1: [1.0, -1.0]},
    "Y": {+1: [1.0, 1.0j], -1: [1.0, -1.0j]},
}
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PRODUCT_BASES = [("X", "X", _CHSH_ORDER), ("Y", "Y", _CHSH_ORDER), ("X", "Y", PM_ORDER), ("Y", "X", PM_ORDER)]
PAULI_PAIRS = [("X", "X"), ("Y", "Y"), ("Z", "Z"), ("X", "Y"), ("Y", "X")]


def chained_bell_state(theta):
    """The Bell state and its two stabilizers by numpy on np.kron products, in _bell_state's operation order."""
    def kron(p, q):
        return np.kron(PAULI[p], PAULI[q])

    c, s = math.cos(theta), math.sin(theta)
    a1 = Operator(c * kron("X", "Y") + s * kron("X", "X"))
    a2 = Operator(c * kron("Y", "X") - s * kron("Y", "Y"))
    ident = np.eye(4, dtype=complex)
    proj = 0.25 * ((ident + a1.mat) @ (ident + a2.mat))
    return StateVector.normalize(proj @ np.full(4, 0.5, dtype=complex)), a1, a2


class TestSharedConstants:
    def test_builds_share_the_product_bases(self):
        first, second = bell_scenario(0.3).kd, bell_scenario(1.1).kd
        assert first.basis_m is second.basis_m and first.basis_b is second.basis_b
        assert peres_mermin_swap().kd.basis_b is peres_mermin_swap().kd.basis_b

    @pytest.mark.parametrize("key", PRODUCT_BASES, ids=lambda k: f"{k[0]}{k[1]}")
    def test_product_basis_is_read_only_and_equals_np_kron(self, key):
        first, second, order = key
        basis = _product_basis(first, second, order)
        assert basis is _product_basis(first, second, order)
        assert basis.labels == tuple(f"({s1:+d},{s2:+d})" for s1, s2 in order)
        for (s1, s2), v in zip(order, basis.vectors):
            u1, u2 = StateVector.normalize(EIGEN[first][s1]), StateVector.normalize(EIGEN[second][s2])
            assert np.array_equal(v.amp, np.kron(u1.amp, u2.amp))
            assert not v.amp.flags.writeable
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("key", PAULI_PAIRS, ids="".join)
    def test_pauli_pair_is_read_only_and_equals_np_kron(self, key):
        op = _pauli_pair(*key)
        assert op is _pauli_pair(*key)
        assert np.array_equal(op.mat, np.kron(PAULI[key[0]], PAULI[key[1]]))
        with pytest.raises(ValueError, match="read-only"):
            op.mat[0, 0] = 1.0

    def test_bell_state_equals_the_operator_chain_bit_for_bit(self):
        rng = np.random.default_rng(18)
        for theta in [0.0, math.pi / 2, 1e-10, *rng.uniform(0.0, math.pi / 2, 20)]:
            state, a1, a2 = _bell_state(float(theta))
            want_state, want_a1, want_a2 = chained_bell_state(float(theta))
            assert np.array_equal(state.amp, want_state.amp), theta
            assert np.array_equal(a1.mat, want_a1.mat), theta
            assert np.array_equal(a2.mat, want_a2.mat), theta

    def test_import_builds_no_constant(self):
        code = (
            "import kdqlab.scenarios as s; "
            "print(s._product_basis.cache_info().currsize, s._pauli_pair.cache_info().currsize)"
        )
        src = str(Path(kdqlab.__file__).resolve().parents[1])  # this checkout's package, or the installed one
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


class TestRegistry:
    def test_defaults(self):
        assert entry(build("leggett-garg").kd, "-1", "+1").real == pytest.approx(-0.125, abs=TOL)
        assert build("bell").passed

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build("ghz")

    def test_theta_rejected_for_fixed_scenarios(self):
        with pytest.raises(ValueError, match="no angle"):
            build("three-box", theta=1.0)

    def test_all_named_scenarios_build(self):
        from kdqlab import SCENARIO_NAMES

        for name in SCENARIO_NAMES:
            assert build(name).passed, name
