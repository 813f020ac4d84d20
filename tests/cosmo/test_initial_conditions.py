"""Tests for Gaussian random-field initial conditions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cosmo.initial_conditions import (
    _real_field_into,
    fourier_grid,
    gaussian_random_field,
    gaussian_random_modes,
    half_spectrum,
    real_field,
)
from repro.cosmo.power_spectrum import PowerSpectrum
from repro.cosmo.statistics import measure_power_spectrum


class TestFourierGrid:
    def test_shapes_broadcast(self):
        kx, ky, kz, k = fourier_grid(8, 100.0)
        assert kx.shape == (8, 1, 1) and ky.shape == (1, 8, 1) and kz.shape == (1, 1, 5)
        assert k.shape == (8, 8, 5) == np.fft.rfftn(np.zeros((8, 8, 8))).shape
        assert fourier_grid(9, 100.0)[3].shape == (9, 9, 5)

    def test_fundamental_mode(self):
        kx, _, _, _ = fourier_grid(8, 100.0)
        assert kx[1, 0, 0] == pytest.approx(2 * np.pi / 100.0)

    def test_nyquist(self):
        """−k_N on every axis, the truncated one included (fftfreq's sign,
        not rfftfreq's: mixed second derivatives depend on it)."""
        kx, ky, kz, _ = fourier_grid(8, 100.0)
        k_nyquist = np.pi * 8 / 100.0
        assert np.abs(kx).max() == pytest.approx(k_nyquist)
        assert kx[4, 0, 0] == ky[0, 4, 0] == kz[0, 0, 4] == pytest.approx(-k_nyquist)
        assert fourier_grid(9, 100.0)[2].min() == 0.0

    def test_zero_mode_at_origin(self):
        _, _, _, k = fourier_grid(8, 100.0)
        assert k[0, 0, 0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_grid(1, 100.0)
        with pytest.raises(ValueError):
            fourier_grid(8, 0.0)


class TestTransformPair:
    """``half_spectrum`` / ``real_field`` against their reference,
    ``numpy.fft.rfftn`` / ``irfftn``: the same 1-D passes in the same
    order, so equal bytes — on even and odd grids, which differ in the
    length the last real pass must be told."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 21), seed=st.integers(0, 2**31 - 1))
    # grids the streamed passes' 8-plane slabs do not divide
    @example(n=33, seed=33)
    @example(n=36, seed=36)
    @example(n=49, seed=49)
    def test_bytes_equal_numpy_rfftn_irfftn(self, n, seed):
        field = np.random.default_rng(seed).standard_normal((n, n, n))
        field_k = half_spectrum(field)
        assert field_k.shape == (n, n, n // 2 + 1)
        assert field_k.tobytes() == np.fft.rfftn(field).tobytes()
        back = np.fft.irfftn(field_k, s=(n, n, n), axes=(0, 1, 2))
        assert real_field(field_k).tobytes() == back.tobytes()
        # the consuming form fills the buffer it is given, from a spectrum
        # it is free to destroy
        out = np.full((n, n, n), np.nan)
        assert _real_field_into(field_k.copy(), out) is out
        assert out.tobytes() == back.tobytes()

    def test_real_input_spectrum(self):
        """A real-valued half spectrum (a power, a shell mask) is a valid
        argument, as it is for ``irfftn``."""
        power = np.abs(half_spectrum(np.random.default_rng(0).standard_normal((6, 6, 6)))) ** 2
        want = np.fft.irfftn(power, s=(6, 6, 6), axes=(0, 1, 2))
        assert real_field(power).tobytes() == want.tobytes()


class TestGaussianRandomField:
    def test_shape_and_realness(self):
        delta = gaussian_random_field(16, 64.0, PowerSpectrum(), rng=0)
        assert delta.shape == (16, 16, 16)
        assert np.isrealobj(delta)

    def test_zero_mean_exact(self):
        delta = gaussian_random_field(16, 64.0, PowerSpectrum(), rng=1)
        assert abs(delta.mean()) < 1e-12

    def test_deterministic(self):
        a = gaussian_random_field(8, 64.0, PowerSpectrum(), rng=2)
        b = gaussian_random_field(8, 64.0, PowerSpectrum(), rng=2)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = gaussian_random_field(8, 64.0, PowerSpectrum(), rng=1)
        b = gaussian_random_field(8, 64.0, PowerSpectrum(), rng=2)
        assert not np.array_equal(a, b)

    def test_return_fourier_consistent(self):
        for n in (8, 9):
            delta = gaussian_random_field(n, 64.0, PowerSpectrum(), rng=3)
            delta_k = gaussian_random_modes(n, 64.0, PowerSpectrum(), rng=3)
            assert delta_k.shape == (n, n, n // 2 + 1)
            np.testing.assert_array_equal(real_field(delta_k), delta)
            np.testing.assert_allclose(np.fft.rfftn(delta), delta_k, atol=1e-10)

    def test_power_spectrum_round_trip(self):
        """The generated field's measured P(k) matches the input P(k)
        (averaged over realizations, within sample variance)."""
        ps = PowerSpectrum()
        n, box = 32, 128.0
        ratios = []
        for seed in range(6):
            delta = gaussian_random_field(n, box, ps, rng=seed)
            k, p = measure_power_spectrum(delta, box, n_bins=8)
            mask = np.isfinite(p) & (k > 2 * 2 * np.pi / box)
            ratios.append(p[mask] / ps(k[mask]))
        mean_ratio = np.mean(ratios, axis=0)
        np.testing.assert_allclose(mean_ratio, 1.0, atol=0.35)

    def test_higher_sigma8_higher_variance(self):
        lo = gaussian_random_field(16, 64.0, PowerSpectrum(sigma_8=0.78), rng=5)
        hi = gaussian_random_field(16, 64.0, PowerSpectrum(sigma_8=0.95), rng=5)
        assert hi.std() > lo.std()
        # same white noise: fields are proportional
        assert hi.std() / lo.std() == pytest.approx(0.95 / 0.78, rel=1e-6)

    def test_amplitude_scales_with_box_discretization(self):
        """Variance grows as resolution increases (more small-scale
        power enters the grid) — a sanity property of the convention."""
        ps = PowerSpectrum()
        coarse = gaussian_random_field(8, 64.0, ps, rng=7).std()
        fine = gaussian_random_field(32, 64.0, ps, rng=7).std()
        assert fine > coarse
