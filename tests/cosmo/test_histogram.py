"""Tests for particle gridding and sub-volume splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmo.histogram import particle_histogram, split_subvolumes


class TestParticleHistogram:
    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 64.0, size=(1000, 3))
        hist = particle_histogram(pos, 16, 64.0)
        assert hist.sum() == 1000

    def test_shape(self):
        pos = np.zeros((1, 3))
        assert particle_histogram(pos, 8, 10.0).shape == (8, 8, 8)

    def test_single_particle_location(self):
        pos = np.array([[7.5, 2.5, 0.5]])
        hist = particle_histogram(pos, 8, 8.0)
        assert hist[7, 2, 0] == 1 and hist.sum() == 1

    def test_out_of_box_raises(self):
        with pytest.raises(ValueError, match="wrap"):
            particle_histogram(np.array([[10.0, 1.0, 1.0]]), 8, 8.0)
        with pytest.raises(ValueError, match="wrap"):
            particle_histogram(np.array([[-0.1, 1.0, 1.0]]), 8, 8.0)

    def test_boundary_is_half_open(self):
        # exactly box_size is invalid; just below lands in the last bin
        hist = particle_histogram(np.array([[7.999, 0.0, 0.0]]), 8, 8.0)
        assert hist[7, 0, 0] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        # both range comparisons are False for NaN: it used to be dropped
        # silently and the counts summed to 999
        pos = np.random.default_rng(0).uniform(0, 64.0, size=(1000, 3))
        pos[17, 1] = bad
        with pytest.raises(ValueError, match="1 of 3000 coordinates are not finite"):
            particle_histogram(pos, 16, 64.0)

    def test_non_finite_count_names_every_coordinate(self):
        pos = np.full((4, 3), 1.0)
        pos[0] = [np.nan, np.inf, 1.0]
        pos[3, 2] = -np.inf
        with pytest.raises(ValueError, match="3 of 12 coordinates are not finite"):
            particle_histogram(pos, 4, 8.0)

    def test_no_particles_is_an_empty_histogram(self):
        hist = particle_histogram(np.empty((0, 3)), 4, 8.0)
        assert hist.shape == (4, 4, 4) and hist.dtype == np.float64 and not hist.any()

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            particle_histogram(np.zeros((3,)), 8, 8.0)
        with pytest.raises(ValueError):
            particle_histogram(np.zeros((2, 3)), 0, 8.0)

    @given(
        n=st.integers(min_value=1, max_value=300),
        bins=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_conservation(self, n, bins, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 32.0, size=(n, 3))
        assert particle_histogram(pos, bins, 32.0).sum() == n


class TestSplitSubvolumes:
    def test_paper_split_shape(self):
        vol = np.arange(16**3).reshape(16, 16, 16)
        subs = split_subvolumes(vol, splits=2)
        assert subs.shape == (8, 8, 8, 8)

    def test_content_preserved(self):
        vol = np.random.default_rng(0).integers(0, 10, size=(8, 8, 8))
        subs = split_subvolumes(vol, splits=2)
        assert subs.sum() == vol.sum()

    def test_corner_mapping(self):
        vol = np.zeros((4, 4, 4))
        vol[0, 0, 0] = 1.0  # first octant
        vol[3, 3, 3] = 2.0  # last octant
        subs = split_subvolumes(vol, splits=2)
        assert subs[0][0, 0, 0] == 1.0
        assert subs[7][1, 1, 1] == 2.0

    def test_splits_one_identity(self):
        vol = np.random.default_rng(1).random((4, 4, 4))
        subs = split_subvolumes(vol, splits=1)
        np.testing.assert_array_equal(subs[0], vol)

    def test_splits_four(self):
        vol = np.zeros((8, 8, 8))
        assert split_subvolumes(vol, splits=4).shape == (64, 2, 2, 2)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            split_subvolumes(np.zeros((7, 7, 7)), splits=2)

    def test_non_cube_raises(self):
        with pytest.raises(ValueError):
            split_subvolumes(np.zeros((4, 4, 8)), splits=2)
