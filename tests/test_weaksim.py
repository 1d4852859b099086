import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from helpers import haar_basis, pointer_joint_density, random_state
from kdqlab import (
    OrthonormalBasis,
    PointerConfig,
    PointerStatistics,
    PostSelectionError,
    SampleBatch,
    StateVector,
    conditional_pointer_mean,
    conditional_pointer_mean_quadrature,
    expectation,
    inner,
    observable_from_eigenvalues,
    post_selection_basis,
    post_selection_probability,
    projector,
    sample,
    scenarios,
    weak_value,
)
from kdqlab.weaksim import CHUNK

TOL = 1e-10


def three_box_setup():
    basis_m = OrthonormalBasis.standard(3, ("1", "2", "3"))
    a = StateVector.normalize([1.0, 1.0, 1.0])
    b = StateVector.normalize([1.0, 1.0, -1.0])
    basis_b = post_selection_basis(a, b, ("b", "rest", "null"))
    return a, basis_m, basis_b


def quad_mass(a, basis_m, basis_b, cfg, b_index):
    integrate = pytest.importorskip("scipy.integrate")
    centers = cfg.coupling * np.asarray(cfg.eigenvalue)
    span = float(np.max(np.abs(centers))) + 12.0 * cfg.width
    value, _ = integrate.quad(
        lambda x: pointer_joint_density(a, basis_m, basis_b, cfg, x, b_index),
        -span,
        span,
        points=sorted(set(float(c) for c in centers)),
        limit=400,
        epsabs=1e-12,
    )
    return value


def reference_sample(a, basis_m, basis_b, cfg, shots, seed):
    """The direct form of the sampler's per-chunk kernel, which ``sample`` must equal bit for bit."""
    c = (basis_b.matrix.conj() @ basis_m.matrix.T) * (basis_m.matrix.conj() @ a.amp)
    dim = len(c)
    stacked = np.concatenate([c.real, c.imag])
    cumulative = np.cumsum(np.sum(c.real**2 + c.imag**2, axis=0))
    cumulative /= cumulative[-1]
    cumulative[-1] = 1.0
    centers = cfg.coupling * np.asarray(cfg.eigenvalue)
    half_gap = (centers[None, :] - centers[:, None]) / (2.0 * cfg.width)
    readings, b_index = [], []
    for start in range(0, shots, CHUNK):
        count = min(CHUNK, shots - start)
        rng = np.random.default_rng([seed, start // CHUNK])
        drawn = np.searchsorted(cumulative, rng.random(count), side="right")
        z = rng.standard_normal(count)
        d = half_gap[:, drawn]
        amps = stacked @ np.exp(-d * (d + z))
        weight = np.cumsum(amps[:dim] ** 2 + amps[dim:] ** 2, axis=0)
        b_index.append(np.sum(weight <= rng.random(count) * weight[-1], axis=0))
        readings.append(centers[drawn] + cfg.width * z)
    return np.concatenate(readings), np.concatenate(b_index)


class TestPointerConfig:
    @pytest.mark.parametrize("bad", [{"coupling": 0.0}, {"coupling": -1.0}, {"width": 0.0}, {"width": np.inf}])
    def test_rejects_non_positive_parameters(self, bad):
        kwargs = {"coupling": 1.0, "width": 1.0, "eigenvalue": (0.0, 1.0)}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            PointerConfig(**kwargs)

    def test_rejects_empty_or_non_finite_spectrum(self):
        with pytest.raises(ValueError):
            PointerConfig(1.0, 1.0, ())
        with pytest.raises(ValueError):
            PointerConfig(1.0, 1.0, (0.0, np.nan))

    def test_length_checked_against_basis(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="eigenvalues"):
            PointerStatistics(a, basis_m, basis_b, cfg)


class TestDensity:
    def test_single_term_is_a_gaussian(self):
        basis = OrthonormalBasis.standard(2)
        a = StateVector([1.0, 0.0])
        b_state = StateVector.normalize([1.0, 1.0])
        basis_b = post_selection_basis(a, b_state, ("b", "rest"))
        cfg = PointerConfig(coupling=2.0, width=0.7, eigenvalue=(1.5, -3.0))
        xs = np.linspace(-9.0, 12.0, 2001)
        got = pointer_joint_density(a, basis, basis_b, cfg, xs, 0)
        weight = abs(inner(b_state, a)) ** 2
        gaussian = weight * np.exp(-((xs - 3.0) ** 2) / (2 * 0.7**2)) / math.sqrt(2 * math.pi * 0.7**2)
        np.testing.assert_allclose(got, gaussian, atol=1e-12)
        assert quad_mass(a, basis, basis_b, cfg, 0) == pytest.approx(weight, abs=1e-9)

    def test_total_mass_is_one(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=0.8, eigenvalue=(0.0, 0.0, 1.0))
        total = sum(quad_mass(a, basis_m, basis_b, cfg, j) for j in range(3))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_non_negative_even_with_negative_joint_entries(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=0.3, eigenvalue=(0.0, 0.0, 1.0))
        xs = np.linspace(-6.0, 7.0, 4001)
        density = pointer_joint_density(a, basis_m, basis_b, cfg, xs, 0)
        assert float(np.min(density)) >= 0.0

    def test_far_reading_has_zero_density(self):
        # (x - center)**2 overflows; the density is its limit 0, with no warning
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 0.0, 1.0))
        for x in (1e200, -1e200):
            assert pointer_joint_density(a, basis_m, basis_b, cfg, x, 0) == 0.0
        assert np.array_equal(pointer_joint_density(a, basis_m, basis_b, cfg, np.array([-1e200, 1e200]), 1), [0.0, 0.0])

    def test_huge_width_far_reading_is_not_flushed_to_zero(self):
        # at width 4e153 the reading 2e154 squares past the float range, its offset in widths does not
        basis = OrthonormalBasis.standard(2)
        a = StateVector([1.0, 0.0])
        b_state = StateVector.normalize([1.0, 1.0])
        basis_b = post_selection_basis(a, b_state, ("b", "rest"))
        width, x = 4e153, 2e154
        cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=(1.5, -3.0))
        z = (x - 1.5) / width
        gaussian = abs(inner(b_state, a)) ** 2 * math.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * width)
        assert pointer_joint_density(a, basis, basis_b, cfg, x, 0) == pytest.approx(gaussian, rel=1e-12)

    def test_scalar_input_gives_scalar(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 0.0, 1.0))
        assert isinstance(pointer_joint_density(a, basis_m, basis_b, cfg, 0.3, 0), float)

    def test_narrow_pointer_window_masses(self):
        # quadrature over +/- 4 sigma windows around each separated peak
        integrate = pytest.importorskip("scipy.integrate")
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=0.01, eigenvalue=(-1.0, 0.0, 1.0))
        for m, center in enumerate((-1.0, 0.0, 1.0)):
            mass, _ = integrate.quad(
                lambda x: pointer_joint_density(a, basis_m, basis_b, cfg, x, 0),
                center - 4.0 * cfg.width,
                center + 4.0 * cfg.width,
                limit=200,
            )
            target = (
                abs(inner(basis_b.vectors[0], basis_m.vectors[m]) * inner(basis_m.vectors[m], a)) ** 2
            )
            assert abs(mass - target) <= 1e-3


class TestConditionalMean:
    def test_three_box_weak_value_readout(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=50.0, eigenvalue=(0.0, 0.0, 1.0))
        closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)
        assert abs(closed - (-1.0) * cfg.coupling) <= 1e-3 * cfg.coupling
        quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, 0)
        assert abs(closed - quad) <= 1e-8

    def test_no_post_selection_weak_limit_gives_expectation(self):
        rng = np.random.default_rng(3)
        a = random_state(rng, 3)
        basis_m = haar_basis(rng, 3, "m")
        basis_b = post_selection_basis(a, a, ("a", "n1", "n2"))
        kappa = (0.4, -1.2, 2.0)
        cfg = PointerConfig(coupling=1.0, width=500.0, eigenvalue=kappa)
        observable = observable_from_eigenvalues(basis_m, kappa)
        target = cfg.coupling * expectation(observable, a).real
        got = conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)
        assert abs(got - target) <= 1e-4

    def test_symmetric_two_term_case_is_zero(self):
        basis_m = OrthonormalBasis.standard(2)
        a = StateVector.normalize([1.0, 1.0])
        basis_b = post_selection_basis(a, a, ("a", "n"))
        cfg = PointerConfig(coupling=1.0, width=2.0, eigenvalue=(1.0, -1.0))
        assert conditional_pointer_mean(a, basis_m, basis_b, cfg, 0) == pytest.approx(0.0, abs=TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_closed_form_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        cfg = PointerConfig(
            coupling=float(rng.uniform(0.5, 2.0)),
            width=float(rng.uniform(0.3, 5.0)),
            eigenvalue=tuple(rng.uniform(-2.0, 2.0, dim)),
        )
        for j in range(dim):
            if post_selection_probability(a, basis_m, basis_b, cfg, j) < 1e-3:
                continue
            closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
            assert abs(closed - quad) <= 1e-8

    @pytest.mark.parametrize("kappa, width", [((0.0, 0.0, 1000.0), 0.01), ((-1000.0, 0.0, 1000.0), 0.001)])
    def test_quadrature_with_narrow_pointer_and_wide_spectrum(self, kappa, width):
        # peaks 1e5 and 1e6 widths apart: the quadrature must not step over any of them
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=kappa)
        for j in range(3):
            if post_selection_probability(a, basis_m, basis_b, cfg, j) <= TOL:
                continue
            closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
            assert abs(quad - closed) <= 1e-8 * max(1.0, abs(closed))

    @pytest.mark.parametrize("width", [1e-8, 1e-12, 1e-17, 1e-18, 1e-100])
    def test_quadrature_with_width_far_below_the_centers(self, width):
        # x - center and center +/- 12 widths would round away at these widths
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=(0.0, 0.0, 1.0))
        for j in range(2):
            closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
            assert abs(quad - closed) <= 1e-8 * max(1.0, abs(closed))

    def test_tiny_coupling_against_huge_spread_scales_out(self):
        # coupling**2 underflows and kappa spread**2 overflows, yet (coupling * spread / width)**2 is 1
        a, basis_m, basis_b = three_box_setup()
        scaled = PointerConfig(coupling=1e-300, width=1.0, eigenvalue=(0.0, 0.0, 1e300))
        unit = PointerConfig(coupling=1.0, width=1.0, eigenvalue=(0.0, 0.0, 1.0))
        for j in range(3):
            mass = post_selection_probability(a, basis_m, basis_b, scaled, j)
            assert mass == pytest.approx(post_selection_probability(a, basis_m, basis_b, unit, j), rel=1e-12, abs=1e-15)
            for mean in (conditional_pointer_mean, conditional_pointer_mean_quadrature):
                if mass <= TOL:  # the dead direction
                    with pytest.raises(PostSelectionError):
                        mean(a, basis_m, basis_b, scaled, j)
                else:
                    assert mean(a, basis_m, basis_b, scaled, j) == pytest.approx(
                        mean(a, basis_m, basis_b, unit, j), rel=1e-12
                    )

    def test_closed_mean_near_the_float_range_scales_out(self):
        # k_n + k_m overflows although every eigenvalue and (coupling * k)**2 are finite
        a, basis_m, basis_b = three_box_setup()
        huge = PointerConfig(coupling=1e-300, width=1.0, eigenvalue=(0.0, 1.5e308, 1.5e308))
        unit = PointerConfig(coupling=1.0, width=1.0, eigenvalue=(0.0, 1.5e8, 1.5e8))
        for j in range(3):
            closed = conditional_pointer_mean(a, basis_m, basis_b, huge, j)
            assert closed == pytest.approx(conditional_pointer_mean(a, basis_m, basis_b, unit, j), rel=1e-12)
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, huge, j)
            assert abs(quad - closed) <= 1e-8 * max(1.0, abs(closed))
        assert PointerStatistics(a, basis_m, basis_b, huge).mean == tuple(
            conditional_pointer_mean(a, basis_m, basis_b, huge, j) for j in range(3)
        )

    def test_quadrature_is_quiet_on_a_dim8_configuration(self):
        rng = np.random.default_rng(0)
        a = random_state(rng, 8)
        basis_m = haar_basis(rng, 8, "m")
        basis_b = haar_basis(rng, 8, "b")
        cfg = PointerConfig(coupling=1.0, width=50.0, eigenvalue=tuple(rng.uniform(-1.0, 1.0, 8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(8):
                closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
                quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, j)
                assert abs(quad - closed) <= 1e-8

    def test_quadrature_reports_its_error_estimate_at_huge_width(self):
        # a mean 1e-12 widths off the anchor: rounding alone leaves ~1e-4
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=1e12, eigenvalue=(0.0, 0.0, 1.0))
        with pytest.warns(RuntimeWarning, match=r"may be off by \S+: its error estimate") as record:
            quad = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, 0)
        estimate = float(re.search(r"off by (\S+):", str(record[0].message)).group(1))
        assert abs(quad - conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)) <= estimate

    def test_weak_limit_error_shrinks_quadratically(self):
        # quadrature oracle at successively halved coupling-to-width ratios
        a, basis_m, basis_b = three_box_setup()
        target = weak_value(a, basis_b.vectors[0], projector(basis_m.vectors[2])).real
        errors = []
        for width in (25.0, 50.0, 100.0):
            cfg = PointerConfig(coupling=1.0, width=width, eigenvalue=(0.0, 0.0, 1.0))
            mean = conditional_pointer_mean_quadrature(a, basis_m, basis_b, cfg, 0)
            assert abs(mean - conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)) <= 1e-8
            errors.append(abs(mean / cfg.coupling - target))
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0

    def test_zero_probability_post_selection_rejected(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 0.0, 1.0))
        with pytest.raises(PostSelectionError):
            conditional_pointer_mean(a, basis_m, basis_b, cfg, 2)  # the dead direction


class TestPointerStatistics:
    @staticmethod
    def assert_matches_per_outcome_functions(a, basis_m, basis_b, cfg):
        stats = PointerStatistics(a, basis_m, basis_b, cfg)
        assert len(stats.probability) == len(stats.mean) == basis_b.dim
        for j in range(basis_b.dim):
            assert stats.probability[j] == post_selection_probability(a, basis_m, basis_b, cfg, j)
            assert (stats.mean[j] is None) == (stats.probability[j] <= TOL)
            if stats.mean[j] is None:
                with pytest.raises(PostSelectionError):
                    conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            else:
                assert stats.mean[j] == conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
        return stats

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_haar_configurations_match_per_outcome_functions(self, dim):
        rng = np.random.default_rng(100 + dim)
        a = random_state(rng, dim)
        basis_m = haar_basis(rng, dim, "m")
        basis_b = haar_basis(rng, dim, "b")
        cfg = PointerConfig(
            coupling=float(rng.uniform(0.5, 2.0)),
            width=float(rng.uniform(0.3, 5.0)),
            eigenvalue=tuple(rng.uniform(-2.0, 2.0, dim)),
        )
        self.assert_matches_per_outcome_functions(a, basis_m, basis_b, cfg)

    def test_dead_outcome_has_no_mean(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=1.0, eigenvalue=(0.0, 0.0, 1.0))
        stats = self.assert_matches_per_outcome_functions(a, basis_m, basis_b, cfg)
        assert stats.mean[2] is None
        assert all(mean is not None for mean in stats.mean[:2])

    @pytest.mark.parametrize("name", ["probability", "mean"])
    def test_record_is_frozen(self, name):
        a, basis_m, basis_b = three_box_setup()
        stats = PointerStatistics(a, basis_m, basis_b, PointerConfig(coupling=1.0, width=1.0, eigenvalue=(0.0, 0.0, 1.0)))
        before = getattr(stats, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stats, name, (1.0,))
        assert getattr(stats, name) is before and isinstance(before, tuple)

    @pytest.mark.parametrize("b_index", [-1, 3])
    @pytest.mark.parametrize(
        "function",
        [post_selection_probability, conditional_pointer_mean, conditional_pointer_mean_quadrature],
    )
    def test_out_of_range_b_index_is_rejected(self, function, b_index):
        # a negative index must not wrap around to the last outcome
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=1.0, eigenvalue=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=f"b_index {b_index} out of range"):
            function(a, basis_m, basis_b, cfg, b_index)


class TestObservable:
    def test_matrix(self):
        basis = OrthonormalBasis.standard(2)
        op = observable_from_eigenvalues(basis, (1.0, -1.0))
        np.testing.assert_allclose(op.mat, np.diag([1.0, -1.0]), atol=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            observable_from_eigenvalues(OrthonormalBasis.standard(2), (1.0,))


class TestSampling:
    def test_shots_validation(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 0.0, 1.0))
        for shots in (0, True, 2.0):
            with pytest.raises(ValueError, match="^shots must be a positive integer"):
                sample(a, basis_m, basis_b, cfg, shots, 1)
        batch = sample(a, basis_m, basis_b, cfg, 1, 1)
        assert len(batch) == 1

    def test_batch_derives_its_length(self):
        batch = SampleBatch(np.array([0.5, -1.0, 2.0]), np.array([0, 2, 1]))
        assert len(batch) == 3

    def test_batch_freezes_views_not_the_callers_arrays(self):
        readings, b_index = np.zeros(3), np.zeros(3, dtype=np.int64)
        batch = SampleBatch(readings, b_index)
        readings[0], b_index[0] = 1.0, 0  # the caller's arrays stay writable
        assert not batch.readings.flags.writeable and not batch.b_index.flags.writeable
        assert np.shares_memory(batch.readings, readings) and np.shares_memory(batch.b_index, b_index)

    def test_seed_validation(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 1.0, (0.0, 0.0, 1.0))
        for seed in (-1, 2**64, False, True, 1.0):
            with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer"):
                sample(a, basis_m, basis_b, cfg, 10, seed)

    def test_deterministic_replay(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 2.0, (0.0, 0.0, 1.0))
        one = sample(a, basis_m, basis_b, cfg, 70000, 99)  # crosses a chunk boundary
        two = sample(a, basis_m, basis_b, cfg, 70000, 99)
        assert np.array_equal(one.readings, two.readings)
        assert np.array_equal(one.b_index, two.b_index)
        different = sample(a, basis_m, basis_b, cfg, 70000, 100)
        assert not np.array_equal(one.readings, different.readings)

    def test_chunk_prefix_property(self):
        # the first chunk of a longer run equals a full shorter run
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 2.0, (0.0, 0.0, 1.0))
        long = sample(a, basis_m, basis_b, cfg, CHUNK + 10, 7)
        short = sample(a, basis_m, basis_b, cfg, CHUNK, 7)
        assert np.array_equal(long.readings[:CHUNK], short.readings)
        assert np.array_equal(long.b_index[:CHUNK], short.b_index)

    @staticmethod
    def stream_case(name):
        """(a, basis_m, basis_b, eigenvalues, widths) of one dimension or pointer regime."""
        if name == "dim1":
            basis = OrthonormalBasis.standard(1)
            return StateVector([1.0]), basis, basis, (0.5,), (1e-3, 1.0, 50.0)
        if name == "three-box":
            return (*three_box_setup(), (0.0, 0.0, 1.0), (1e-3, 1.0, 50.0))
        if name == "span-heavy":
            return (*three_box_setup(), (0.0, 0.0, 1000.0), (0.01,))
        if name == "hardy":
            kd = scenarios.build("hardy").kd
            return kd.state_a, kd.basis_m, kd.basis_b, (0.0, 1.0, -1.0, 2.0), (1e-3, 1.0, 50.0)
        rng = np.random.default_rng(8)
        kappa = tuple(rng.uniform(-1.0, 1.0, 8))
        return random_state(rng, 8), haar_basis(rng, 8), haar_basis(rng, 8, "w"), kappa, (1e-3, 1.0, 50.0)

    @pytest.mark.parametrize("name", ["dim1", "three-box", "span-heavy", "hardy", "dim8"])
    def test_stream_matches_the_reference_kernel(self, name):
        a, basis_m, basis_b, kappa, widths = self.stream_case(name)
        for width in widths:
            cfg = PointerConfig(1.0, width, kappa)
            for seed in (0, 2**64 - 1):
                for shots in (1, CHUNK - 1, CHUNK, CHUNK + 1):
                    batch = sample(a, basis_m, basis_b, cfg, shots, seed)
                    readings, b_index = reference_sample(a, basis_m, basis_b, cfg, shots, seed)
                    assert np.array_equal(batch.readings, readings), (width, seed, shots)
                    assert np.array_equal(batch.b_index, b_index), (width, seed, shots)

    def test_zero_probability_outcome_is_never_drawn(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 2.0, (0.0, 0.0, 1.0))
        batch = sample(a, basis_m, basis_b, cfg, 500, 5)
        assert set(batch.b_index.tolist()) <= {0, 1, 2}
        assert 2 not in batch.b_index  # index 2 is "null", orthogonal to the preparation

    def test_outcome_frequencies_match_closed_form(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(1.0, 5.0, (0.0, 0.0, 1.0))
        shots = 200000
        batch = sample(a, basis_m, basis_b, cfg, shots, 31)
        for j in range(3):
            p = post_selection_probability(a, basis_m, basis_b, cfg, j)
            freq = float(np.mean(batch.b_index == j))
            assert abs(freq - p) <= 4.0 * math.sqrt(max(p * (1 - p), 1e-12) / shots) + 1e-3

    def test_empirical_conditional_mean_converges(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=50.0, eigenvalue=(0.0, 0.0, 1.0))
        batch = sample(a, basis_m, basis_b, cfg, 200000, 42)
        selected = batch.readings[batch.b_index == 0]
        closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, 0)
        stderr = float(selected.std(ddof=1)) / math.sqrt(selected.size)
        assert abs(float(selected.mean()) - closed) <= 4.0 * stderr

    def test_strong_limit_recovers_projective_statistics(self):
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=0.01, eigenvalue=(-1.0, 0.0, 1.0))
        batch = sample(a, basis_m, basis_b, cfg, 200000, 11)
        selected = batch.readings[batch.b_index == 0]
        born_weights = np.array(
            [
                abs(inner(basis_b.vectors[0], basis_m.vectors[m]) * inner(basis_m.vectors[m], a)) ** 2
                for m in range(3)
            ]
        )
        born_weights /= born_weights.sum()
        for m, center in enumerate((-1.0, 0.0, 1.0)):
            cluster = float(np.mean(np.abs(selected - center) < 4.0 * cfg.width))
            assert abs(cluster - born_weights[m]) <= 1e-2

    def test_narrow_pointer_and_wide_spectrum_match_closed_form(self):
        # a width 1e5 times smaller than the eigenvalue spread
        a, basis_m, basis_b = three_box_setup()
        cfg = PointerConfig(coupling=1.0, width=0.01, eigenvalue=(0.0, 0.0, 1000.0))
        shots = 200000
        batch = sample(a, basis_m, basis_b, cfg, shots, 23)
        for j in range(3):
            p = post_selection_probability(a, basis_m, basis_b, cfg, j)
            freq = float(np.mean(batch.b_index == j))
            if p <= TOL:
                assert freq == 0.0
                continue
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / shots)
            selected = batch.readings[batch.b_index == j]
            stderr = float(selected.std(ddof=1)) / math.sqrt(selected.size)
            closed = conditional_pointer_mean(a, basis_m, basis_b, cfg, j)
            assert abs(float(selected.mean()) - closed) <= 4.0 * stderr
