import math
import os
import pickle
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
    OrthonormalBasis,
    StateVector,
    bell_scenario,
    bloch_state,
    build,
    cheshire_cat,
    complete_basis,
    expectation,
    hardy,
    inner,
    kd_joint,
    leggett_garg,
    negativity,
    pauli,
    peres_mermin_swap,
    tensor_op,
    three_box,
)
from kdqlab.cli import main
from kdqlab.scenarios import (
    _CHSH_CELLS,
    _CHSH_ORDER,
    _PAULI_PAIRS,
    _SWAP_BASIS,
    _XY_BASIS,
    _YX_BASIS,
    _bell_state,
    _chsh_target,
    _eigenvalues_of,
    _spin_basis,
)

TOL = 1e-10
U = 2.0**-53  # the unit roundoff
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

    def test_spin_basis_matches_the_gram_schmidt_completion_up_to_a_global_phase(self):
        # the -1 vector is the Bloch state along theta + pi, not the completion of the +1 vector; the two
        # differ by a global phase only. The builder reads the basis at theta and at 2 theta, in (0, 2 pi)
        edges = [5e-324, 1e-16, math.pi - 4.4e-16, 2.0 * (math.pi - 4.4e-16), 2.0 * math.pi - 8.9e-16]
        for theta in [*edges, *np.linspace(0.0, 2.0 * math.pi, 2001)[1:-1].tolist()]:
            basis = _spin_basis(theta)
            completed = complete_basis([bloch_state(theta)], ("+1", "-1"))
            assert basis.labels == completed.labels
            for v, w in zip(basis.vectors, completed.vectors):
                assert abs(abs(inner(v, w)) - 1.0) <= 4 * U, theta

    def test_tables_lie_within_the_entry_bound_of_the_completion_route(self):
        # the table does not see the global phase of a basis vector, so the two routes differ by rounding,
        # bounded by test_oracle's entry bound (3d + 16) u at d = 2
        prep = bloch_state(0.0)
        for theta in np.linspace(0.0, math.pi, 2003)[1:-1].tolist():
            completed = kd_joint(prep, *(complete_basis([bloch_state(t)], ("+1", "-1")) for t in (theta, 2.0 * theta)))
            assert float(abs(leggett_garg(theta).kd.table - completed.table).max()) <= 22 * U, theta

    def test_every_report_passes_on_the_edge_grid(self):
        # a uniform grid, and angles crowding the three places where a check meets a rounding edge: theta -> 0,
        # where the three spins align and the negative entry vanishes as -theta^2 / 4; pi / 2, where
        # P(b|a) = cos^2(theta) vanishes; and theta -> pi, down to the largest float below pi
        grid = [
            *np.linspace(0.0, math.pi, 4001)[1:-1].tolist(),
            5e-324,
            *np.logspace(-320, -1, 320).tolist(),
            *(math.pi / 2 + np.linspace(-1e-8, 1e-8, 281)).tolist(),
            math.pi - 4.4e-16,
            *(math.pi - np.logspace(-15.3, -1, 200)).tolist(),
        ]
        assert len(grid) >= 4800
        failed = [theta for theta in grid if not leggett_garg(theta).passed]
        assert failed == []


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
        assert entry(report.kd, "S", "(+1 +1)") == pytest.approx(-0.125, abs=TOL)
        for label in ("Tx", "Ty", "Tz"):
            assert entry(report.kd, label, "(+1 +1)") == pytest.approx(0.125, abs=TOL)

    def test_product_relations_by_application(self):
        report = peres_mermin_swap()
        by_name = {c.name: c for c in report.checks}
        assert complex(by_name["(X1X2)(Y1Y2) = -(Z1Z2) on all four swap eigenvectors"].got).real <= TOL
        assert complex(by_name["(X1Y2)(Y1X2) = Z1Z2 on all eight product-context states"].got).real <= TOL

    def test_eigenvalues_equal_one_application_per_vector_bit_for_bit(self):
        # the batched products give the bits of applying each operator to each vector on its own
        report = peres_mermin_swap()
        pairs = [(_PAULI_PAIRS[axes], report.kd.basis_m.matrix) for axes in ("XX", "YY", "ZZ")]
        pairs += [(_PAULI_PAIRS["XY"], report.kd.state_a.amp[None]), (_PAULI_PAIRS["YX"], report.kd.basis_b.matrix[:1])]
        for op, vectors in pairs:
            one_by_one = [complex(np.vdot(v, op.mat @ v)).real for v in vectors]
            assert _eigenvalues_of(op, vectors).tobytes() == np.array(one_by_one).tobytes()

    def test_the_constants_carry_their_eigenvalues(self):
        # why _eigenvalues_of checks nothing on a build: the five (operator, vectors) pairs that the builder
        # passes are read-only constants. Each row is an eigenvector within 1e-15, each quotient is exactly
        # real, and the rows of eigenvalues are S (-1, -1, -1), Tx (-1, +1, +1), Ty (+1, -1, +1) and
        # Tz (+1, +1, -1) under X1X2, Y1Y2 and Z1Z2, and +1 for a under X1Y2 and for b under Y1X2. The report
        # cannot stand in for this test: with Tx and Tz rotated into each other it passes at every angle tried
        pairs = [(key, _SWAP_BASIS.matrix) for key in ("XX", "YY", "ZZ")]
        pairs += [("XY", _XY_BASIS.matrix[:1]), ("YX", _YX_BASIS.matrix[:1])]
        columns = []
        for key, vectors in pairs:
            op = _PAULI_PAIRS[key]
            images = vectors @ op.mat.T
            values = (vectors.conj() * images).sum(axis=1)
            assert float(abs(images - values[:, None] * vectors).max()) <= 1e-15, key
            assert np.all(values.imag == 0.0), key
            columns.append(values.real)
        expected = [[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]
        np.testing.assert_allclose(np.stack(columns[:3], axis=1), expected, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.concatenate(columns[3:]), [1.0, 1.0], rtol=0.0, atol=1e-15)
        assert _SWAP_BASIS.labels == ("S", "Tx", "Ty", "Tz")

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
        column = report.kd.table[:, report.kd.basis_b.labels.index("(+1 +1)")]
        expected = {"(-1 -1)": -0.125, "(+1 -1)": 0.125, "(-1 +1)": 0.125, "(+1 +1)": 0.125}
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

    def test_stacked_stabilizer_residual_equals_the_per_operator_maximum_bit_for_bit(self):
        # the stacked product of both stabilizers that the rank-one test below reads; each slice is the
        # product one operator alone gives, so the stacked residual keeps the per-operator bits
        for theta in [0.0, 1e-10, 5e-11, math.pi / 2, *np.linspace(0.0, math.pi / 2, 1001).tolist()]:
            state, a1, a2 = _bell_state(theta)
            stacked = float(abs(np.array((a1.mat, a2.mat)) @ state.amp - state.amp).max())
            per_operator = max(float(np.max(np.abs(op.mat @ state.amp - state.amp))) for op in (a1, a2))
            assert stacked.hex() == per_operator.hex(), theta

    def test_projector_has_rank_one_and_both_stabilizers_fix_the_state(self):
        # why _bell_state runs no check of its own: at every angle its projector 0.25 (1 + a1)(1 + a2) has
        # trace 1 and both stabilizers fix the returned state, far inside TOL
        rng = np.random.default_rng(36)
        ident = np.eye(4)
        for theta in [0.0, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 2001).tolist()]:
            state, a1, a2 = _bell_state(theta)
            trace = complex(np.trace(0.25 * ((ident + a1.mat) @ (ident + a2.mat))))
            assert abs(trace - 1.0) <= 1e-15, theta
            assert float(abs(np.array((a1.mat, a2.mat)) @ state.amp - state.amp).max()) <= 1e-15, theta

    @pytest.mark.parametrize("mutant", ["rank-two", "sign-flip"])
    def test_a_wrong_construction_fails_the_report(self, monkeypatch, capsys, mutant):
        # a mutated Pauli product breaks the construction: "rank-two" makes a2 = a1 (YX -> XY, YY -> -XX),
        # so the projector has rank 2; "sign-flip" (YY -> -YY) makes the stabilizers no longer commute. The
        # report's own checks fail on each, and the CLI exits 3 with no error line
        xx, yy, xy = (_PAULI_PAIRS[key].mat for key in ("XX", "YY", "XY"))
        if mutant == "rank-two":
            monkeypatch.setitem(_PAULI_PAIRS, "YX", Operator(xy))
            monkeypatch.setitem(_PAULI_PAIRS, "YY", Operator(-xx))
        else:
            monkeypatch.setitem(_PAULI_PAIRS, "YY", Operator(-yy))
        _, a1, a2 = _bell_state(0.3)
        ident = np.eye(4)
        if mutant == "rank-two":
            assert np.array_equal(a1.mat, a2.mat)
            assert np.linalg.matrix_rank(0.25 * ((ident + a1.mat) @ (ident + a2.mat))) == 2
        else:
            assert float(abs(a1.mat @ a2.mat - a2.mat @ a1.mat).max()) > 0.1
        for theta in [0.3, math.pi / 4, 1.2]:
            report = bell_scenario(theta)
            failed = [c.name for c in report.checks if not c.passed]
            assert not report.passed and "joint table matches the closed-form table" in failed, theta
        assert main(["scenario", "bell", "--theta", "0.3"]) == 3
        assert "error:" not in capsys.readouterr().err


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
# each product-basis constant of the scenarios module: its axes and its order of sign pairs
PRODUCT_BASES = {
    "XX": ("_XX_BASIS", _CHSH_ORDER),
    "YY": ("_YY_BASIS", _CHSH_ORDER),
    "XY": ("_XY_BASIS", PM_ORDER),
    "YX": ("_YX_BASIS", PM_ORDER),
}
PAULI_PAIRS = ["XX", "YY", "ZZ", "XY", "YX"]  # the keys of the scenarios module's Pauli products, in order
# each fixed scenario's inputs, once built by a cached helper of the given name, and the module constants that hold
# them now
FIXED_INPUTS = {
    "_leggett_garg_preparation": ("_LG_PREPARATION",),
    "_three_box_inputs": ("_THREE_BOX", "_BOX1", "_BOX3"),
    "_cheshire_cat_inputs": ("_CHESHIRE_CAT", "_PATH1"),
    "_hardy_inputs": ("_HARDY_A", "_HARDY_PATHS", "_HARDY_PORTS", "_B1_OUTER2", "_OUTER1_B2"),
    "_swap_basis": ("_SWAP_BASIS",),
}


def arrays_of(value):
    """Every array a value holds, and none for a value that holds no array.

    That is the value itself if it is an array, its amplitudes or matrix if it is a state, an operator or a basis,
    and the arrays of every item of a tuple and every value of a dict.
    """
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, tuple):
        return [array for item in value for array in arrays_of(item)]
    if isinstance(value, StateVector):
        return [value.amp]
    if isinstance(value, Operator):
        return [value.mat]
    if isinstance(value, OrthonormalBasis):
        return [value.matrix, *arrays_of(value.vectors)]
    return [value] if isinstance(value, np.ndarray) else []


def report_bits(report):
    """Each check's name, ``got`` as exact bits and ``passed``, and the table's bytes."""
    checks = [(c.name, complex(c.got).real.hex(), complex(c.got).imag.hex(), c.passed) for c in report.checks]
    return checks, report.kd.table.tobytes()


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
        assert first.basis_m is second.basis_m is kdqlab.scenarios._XX_BASIS
        assert first.basis_b is second.basis_b is kdqlab.scenarios._YY_BASIS
        assert peres_mermin_swap().kd.basis_b is peres_mermin_swap().kd.basis_b is kdqlab.scenarios._YX_BASIS

    @pytest.mark.parametrize("axes", PRODUCT_BASES)
    def test_product_basis_is_read_only_and_equals_np_kron(self, axes):
        (first, second), (name, order) = axes, PRODUCT_BASES[axes]
        basis = getattr(kdqlab.scenarios, name)
        assert basis.labels == tuple(f"({s1:+d} {s2:+d})" for s1, s2 in order)
        for (s1, s2), v in zip(order, basis.vectors):
            u1, u2 = StateVector.normalize(EIGEN[first][s1]), StateVector.normalize(EIGEN[second][s2])
            assert np.array_equal(v.amp, np.kron(u1.amp, u2.amp))
            assert not v.amp.flags.writeable
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("key", PAULI_PAIRS)
    def test_pauli_pair_is_read_only_and_equals_np_kron(self, key):
        assert list(_PAULI_PAIRS) == PAULI_PAIRS
        op = _PAULI_PAIRS[key]
        assert np.array_equal(op.mat, np.kron(PAULI[key[0]], PAULI[key[1]]))
        with pytest.raises(ValueError, match="read-only"):
            op.mat[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["three-box", "cheshire-cat", "hardy", "peres-mermin"])
    def test_builds_of_a_fixed_scenario_share_their_inputs(self, name):
        first, second = build(name).kd, build(name).kd
        assert first.state_a is second.state_a
        assert first.basis_m is second.basis_m and first.basis_b is second.basis_b

    @pytest.mark.parametrize("inputs", list(FIXED_INPUTS))
    def test_every_cached_array_is_read_only(self, inputs):
        for name in FIXED_INPUTS[inputs]:
            arrays = arrays_of(getattr(kdqlab.scenarios, name))
            assert arrays, name
            for array in arrays:
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0

    def test_every_module_constant_is_read_only(self):
        # every module constant is scanned, so a constant added later is checked too
        held = {name: arrays_of(value) for name, value in vars(kdqlab.scenarios).items()}
        found = {name for name, arrays in held.items() if arrays}
        assert {"_LG_PREPARATION", "_THREE_BOX", "_BOX1", "_BOX3", "_CHESHIRE_CAT", "_PATH1", "_EIGEN"} <= found
        assert {"_HARDY_A", "_HARDY_PATHS", "_HARDY_PORTS", "_B1_OUTER2", "_OUTER1_B2", "_PAULI_PAIRS"} <= found
        assert {"_XY_BASIS", "_SWAP_BASIS", "_CONTEXTS", "_LITERAL_SWAP", "_CHSH_CELLS", "_XX_BASIS"} <= found
        assert "_PLUS_PLUS" in found
        for name, arrays in held.items():
            for array in arrays:
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 0

    def test_a_cold_build_gives_the_bits_of_a_warm_one(self):
        # each scenario's first build in a fresh process against a build after every scenario has run 100
        # times here: no build changes a constant that a later build reads
        for _ in range(100):
            for name in kdqlab.SCENARIO_NAMES:
                build(name)
        code = "import pickle, sys, kdqlab; sys.stdout.buffer.write(pickle.dumps(kdqlab.build(sys.argv[1])))"
        src = str(Path(kdqlab.__file__).resolve().parents[1])  # this checkout's package, or the installed one
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in kdqlab.SCENARIO_NAMES:
            done = subprocess.run([sys.executable, "-c", code, name], env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            assert report_bits(pickle.loads(done.stdout)) == report_bits(build(name)), name

    def test_bell_state_equals_the_operator_chain_bit_for_bit(self):
        rng = np.random.default_rng(18)
        for theta in [0.0, math.pi / 2, 1e-10, *rng.uniform(0.0, math.pi / 2, 20)]:
            state, a1, a2 = _bell_state(float(theta))
            want_state, want_a1, want_a2 = chained_bell_state(float(theta))
            assert np.array_equal(state.amp, want_state.amp), theta
            assert np.array_equal(a1.mat, want_a1.mat), theta
            assert np.array_equal(a2.mat, want_a2.mat), theta


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
