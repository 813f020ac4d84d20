"""Tests for the end-to-end dataset builder."""

import numpy as np
import pytest

from repro.core.parameters import ParameterSpace
from repro.cosmo.dataset_builder import (
    SimulationConfig,
    build_arrays,
    normalize_counts,
    run_simulation,
    simulate_density,
    train_val_test_split,
)

SMALL = SimulationConfig(particle_grid=16, histogram_grid=16, box_size=32.0)


class TestSimulationConfig:
    def test_paper_ratios_default(self):
        cfg = SimulationConfig()
        assert cfg.subvolume_size == cfg.histogram_grid // 2
        assert cfg.subvolumes_per_sim == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(particle_grid=2)
        with pytest.raises(ValueError):
            SimulationConfig(histogram_grid=15, splits=2)

    @pytest.mark.parametrize("grid", [0, -2])
    def test_histogram_grid_below_one_is_refused_at_construction(self, grid):
        # the fused dataset path bins without particle_histogram's own check
        with pytest.raises(ValueError, match="histogram_grid must be >= 1"):
            SimulationConfig(histogram_grid=grid)


class TestRunSimulation:
    def test_positions_shape_and_bounds(self):
        pos = run_simulation((0.31, 0.82, 0.96), SMALL, seed=0)
        assert pos.shape == (16**3, 3)
        assert np.all(pos >= 0) and np.all(pos < SMALL.box_size)

    def test_two_parameter_theta(self):
        pos = run_simulation((0.31, 0.82), SMALL, seed=0)
        assert pos.shape == (16**3, 3)

    def test_four_parameter_theta(self):
        """The extended space: h as a fourth predicted parameter."""
        a = run_simulation((0.31, 0.82, 0.96, 0.60), SMALL, seed=0)
        b = run_simulation((0.31, 0.82, 0.96, 0.75), SMALL, seed=0)
        assert a.shape == (16**3, 3)
        assert not np.allclose(a, b)  # h changes the transfer function

    def test_extended_space_build(self):
        from repro.core.parameters import EXTENDED_RANGES, ParameterSpace

        space = ParameterSpace(dict(EXTENDED_RANGES))
        x, y, th = build_arrays(1, SMALL, space=space, seed=0)
        assert y.shape == (8, 4)
        assert th.shape == (8, 4)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            run_simulation((0.3,), SMALL)

    def test_deterministic(self):
        a = run_simulation((0.3, 0.8, 0.95), SMALL, seed=3)
        b = run_simulation((0.3, 0.8, 0.95), SMALL, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_parameters_change_output(self):
        a = run_simulation((0.25, 0.78, 0.90), SMALL, seed=3)
        b = run_simulation((0.35, 0.95, 1.00), SMALL, seed=3)
        assert not np.allclose(a, b)

    def test_cola_path_runs(self):
        cfg = SimulationConfig(
            particle_grid=8, histogram_grid=8, box_size=32.0, cola_steps=2
        )
        pos = run_simulation((0.31, 0.82, 0.96), cfg, seed=0)
        assert pos.shape == (512, 3)

    def test_za_only_differs_from_2lpt(self):
        za = SimulationConfig(particle_grid=16, histogram_grid=16, box_size=32.0, use_2lpt=False)
        a = run_simulation((0.31, 0.82, 0.96), SMALL, seed=1)
        b = run_simulation((0.31, 0.82, 0.96), za, seed=1)
        assert not np.allclose(a, b)


class TestSimulateDensity:
    def test_counts_conserved(self):
        counts = simulate_density((0.31, 0.82, 0.96), SMALL, seed=0)
        assert counts.shape == (16, 16, 16)
        assert counts.sum() == 16**3

    def test_structure_present(self):
        """Gravitational clustering: the evolved field is non-uniform."""
        counts = simulate_density((0.31, 0.95, 0.96), SMALL, seed=0)
        assert counts.std() > 0.5

    def test_sigma8_increases_clumpiness(self):
        lo = simulate_density((0.31, 0.78, 0.96), SMALL, seed=4)
        hi = simulate_density((0.31, 0.95, 0.96), SMALL, seed=4)
        assert hi.std() > lo.std()


class TestNormalizeCounts:
    def test_well_conditioned_range(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(1.0, size=(8, 8, 8))
        out = normalize_counts(counts)
        assert -2.0 < out.mean() < 2.0
        assert out.std() < 5.0

    def test_global_affine_preserves_amplitude_ordering(self):
        """The σ8 signal: denser fields must map to larger values —
        normalization is global, never per-volume."""
        lo = normalize_counts(np.full((4, 4, 4), 1.0))
        hi = normalize_counts(np.full((4, 4, 4), 9.0))
        assert np.all(hi > lo)

    def test_exact_formula(self):
        from repro.cosmo.dataset_builder import LOG_SCALE

        counts = np.array([[[0.0, 3.0]]])
        out = normalize_counts(counts, mean_count=8.0)
        np.testing.assert_allclose(
            out, (np.log1p(counts) - np.log1p(8.0)) / LOG_SCALE, rtol=1e-6
        )

    def test_mean_count_centers(self):
        """A voxel at exactly the expected mean count maps to ~0."""
        out = normalize_counts(np.full((2, 2, 2), 8.0), mean_count=8.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_negative_mean_raises(self):
        with pytest.raises(ValueError):
            normalize_counts(np.ones((2, 2, 2)), mean_count=-1.0)

    def test_float32(self):
        assert normalize_counts(np.ones((2, 2, 2))).dtype == np.float32


class TestBuildArrays:
    def test_shapes(self):
        x, y, th = build_arrays(3, SMALL, seed=0)
        assert x.shape == (3 * 8, 1, 8, 8, 8)
        assert y.shape == (24, 3)
        assert th.shape == (24, 3)

    def test_targets_normalized(self):
        _, y, th = build_arrays(2, SMALL, seed=1)
        assert np.all(y >= 0) and np.all(y <= 1)
        space = ParameterSpace()
        np.testing.assert_allclose(space.denormalize(y), th, rtol=1e-5)

    def test_subvolumes_share_targets(self):
        _, y, _ = build_arrays(2, SMALL, seed=2)
        for sim in range(2):
            block = y[sim * 8 : (sim + 1) * 8]
            assert np.all(block == block[0])

    def test_deterministic(self):
        x1, y1, _ = build_arrays(1, SMALL, seed=5)
        x2, y2, _ = build_arrays(1, SMALL, seed=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_unnormalized_counts(self):
        x, _, _ = build_arrays(1, SMALL, seed=0, normalize=False)
        assert x.min() >= 0  # raw counts
        assert x.sum() == pytest.approx(16**3, rel=1e-6)

    def test_two_parameter_space(self):
        space = ParameterSpace().subset(["omega_m", "sigma_8"])
        x, y, th = build_arrays(1, SMALL, space=space, seed=0)
        assert y.shape == (8, 2)

    def test_bad_n_sims(self):
        with pytest.raises(ValueError):
            build_arrays(0, SMALL)


class TestTrainValTestSplit:
    def make(self, n_sims=10):
        per = 8
        n = n_sims * per
        x = np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1, 1)
        y = np.repeat(np.arange(n_sims, dtype=np.float32), per)[:, None]
        th = y.copy()
        return x, y, th, per

    def test_split_sizes(self):
        x, y, th, per = self.make(10)
        (xtr, *_), (xv, *_), (xte, *_) = train_val_test_split(
            x, y, th, per, val_fraction=0.2, test_fraction=0.1, rng=0
        )
        assert len(xv) == 2 * per and len(xte) == 1 * per
        assert len(xtr) == 7 * per
        assert len(xtr) + len(xv) + len(xte) == len(x)

    def test_no_simulation_leaks_across_splits(self):
        x, y, th, per = self.make(10)
        (_, ytr, _), (_, yv, _), (_, yte, _) = train_val_test_split(
            x, y, th, per, rng=1
        )
        tr, v, te = set(ytr.ravel()), set(yv.ravel()), set(yte.ravel())
        assert not (tr & v) and not (tr & te) and not (v & te)

    def test_deterministic(self):
        x, y, th, per = self.make(6)
        a = train_val_test_split(x, y, th, per, rng=2)
        b = train_val_test_split(x, y, th, per, rng=2)
        np.testing.assert_array_equal(a[0][0], b[0][0])

    def test_indivisible_raises(self):
        x, y, th, per = self.make(2)
        with pytest.raises(ValueError):
            train_val_test_split(x[:-1], y[:-1], th[:-1], per)

    def test_too_small_raises(self):
        x, y, th, per = self.make(2)
        with pytest.raises(ValueError):
            train_val_test_split(x, y, th, per, val_fraction=0.5, test_fraction=0.5)

    def test_bad_fractions(self):
        x, y, th, per = self.make(4)
        with pytest.raises(ValueError):
            train_val_test_split(x, y, th, per, val_fraction=-0.1)
