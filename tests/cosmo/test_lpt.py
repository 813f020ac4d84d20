"""Tests for Zel'dovich / 2LPT displacements."""

import numpy as np
import pytest

from repro.cosmo.initial_conditions import (
    fourier_grid,
    gaussian_random_field,
    gaussian_random_modes,
    real_field,
    zero_nyquist,
)
from repro.cosmo.lpt import (
    displace_particles,
    lattice_positions,
    lpt2_displacement,
    second_order_growth,
    zeldovich_displacement,
)
from repro.cosmo.power_spectrum import PowerSpectrum


def plane_wave_delta_k(n, box, amplitude=0.01):
    """δ(x) = A cos(k1 x) along axis 0, as its half spectrum."""
    x = (np.arange(n) + 0.0) * (box / n)
    delta = amplitude * np.cos(2 * np.pi * x / box)[:, None, None] * np.ones((1, n, n))
    return np.fft.rfftn(delta), delta


class TestZeldovich:
    def test_shape(self):
        dk = np.zeros((8, 8, 5), dtype=complex)
        assert zeldovich_displacement(dk, 64.0).shape == (3, 8, 8, 8)

    def test_zero_field_zero_displacement(self):
        dk = np.zeros((8, 8, 5), dtype=complex)
        np.testing.assert_allclose(zeldovich_displacement(dk, 64.0), 0.0)

    def test_plane_wave_analytic(self):
        """For δ = A cos(kx), Ψ_x = −(A/k) sin(kx) (so that ∇·Ψ = −δ),
        other components 0."""
        n, box, amp = 16, 64.0, 0.02
        dk, _ = plane_wave_delta_k(n, box, amp)
        psi = zeldovich_displacement(dk, box)
        k1 = 2 * np.pi / box
        x = np.arange(n) * (box / n)
        expect = -(amp / k1) * np.sin(k1 * x)
        np.testing.assert_allclose(psi[0][:, 0, 0], expect, atol=1e-10)
        np.testing.assert_allclose(psi[1], 0.0, atol=1e-10)
        np.testing.assert_allclose(psi[2], 0.0, atol=1e-10)

    def test_divergence_equals_minus_delta(self):
        """∇·Ψ = −δ (the continuity relation at first order).

        Exact only on Nyquist-filtered fields — spectral i·k derivatives
        are ill-defined at the Nyquist plane of an even grid.
        """
        n, box = 16, 64.0
        delta_k = zero_nyquist(gaussian_random_modes(n, box, PowerSpectrum(), rng=0))
        delta = real_field(delta_k)
        psi = zeldovich_displacement(delta_k, box)
        # spectral divergence
        kx, ky, kz, _ = fourier_grid(n, box)
        div_k = (
            1j * kx * np.fft.rfftn(psi[0])
            + 1j * ky * np.fft.rfftn(psi[1])
            + 1j * kz * np.fft.rfftn(psi[2])
        )
        div = real_field(div_k)
        np.testing.assert_allclose(div, -delta, atol=1e-8)

    def test_non_cubic_raises(self):
        with pytest.raises(ValueError):
            zeldovich_displacement(np.zeros((4, 4, 8), dtype=complex), 64.0)


class TestLPT2:
    def test_shape(self):
        dk = np.zeros((8, 8, 5), dtype=complex)
        assert lpt2_displacement(dk, 64.0).shape == (3, 8, 8, 8)

    def test_plane_wave_has_no_second_order(self):
        """A single plane wave is an exact Zel'dovich solution: the 2LPT
        source (a determinant of the Hessian's off-diagonal products)
        vanishes identically."""
        dk, _ = plane_wave_delta_k(16, 64.0, 0.05)
        psi2 = lpt2_displacement(dk, 64.0)
        np.testing.assert_allclose(psi2, 0.0, atol=1e-12)

    def test_generic_field_nonzero(self):
        delta = gaussian_random_field(16, 64.0, PowerSpectrum(), rng=1)
        psi2 = lpt2_displacement(np.fft.rfftn(delta), 64.0)
        assert np.abs(psi2).max() > 0

    def test_second_order_smaller_than_first_for_linear_field(self):
        ps = PowerSpectrum(sigma_8=0.2)  # weakly non-linear
        dk = gaussian_random_modes(16, 256.0, ps, rng=2)
        psi1 = zeldovich_displacement(dk, 256.0)
        psi2 = lpt2_displacement(dk, 256.0)
        assert np.abs(psi2).std() < np.abs(psi1).std()

    def test_quadratic_scaling(self):
        """Ψ² is quadratic in δ: doubling δ quadruples Ψ²."""
        delta = gaussian_random_field(8, 64.0, PowerSpectrum(), rng=3)
        p1 = lpt2_displacement(np.fft.rfftn(delta), 64.0)
        p2 = lpt2_displacement(np.fft.rfftn(2 * delta), 64.0)
        np.testing.assert_allclose(p2, 4 * p1, rtol=1e-8, atol=1e-12)


class TestSecondOrderGrowth:
    def test_eds_value(self):
        assert second_order_growth(1.0, 1.0) == pytest.approx(-3.0 / 7.0)

    def test_scales_with_d1_squared(self):
        assert second_order_growth(0.5, 0.3) == pytest.approx(
            0.25 * second_order_growth(1.0, 0.3)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            second_order_growth(1.0, 0.0)


class TestDisplaceParticles:
    def test_lattice_shape_and_bounds(self):
        q = lattice_positions(8, 64.0)
        assert q.shape == (512, 3)
        assert q.min() >= 0 and q.max() < 64.0

    def test_lattice_uniform_spacing(self):
        q = lattice_positions(4, 8.0)
        xs = np.unique(q[:, 0])
        np.testing.assert_allclose(np.diff(xs), 2.0)

    def test_zero_displacement_identity(self):
        psi = np.zeros((3, 4, 4, 4))
        x = displace_particles(psi, 8.0, d1=1.0)
        np.testing.assert_allclose(x, lattice_positions(4, 8.0))

    def test_periodic_wrapping(self):
        psi = np.full((3, 4, 4, 4), 10.0)  # push everything past the edge
        x = displace_particles(psi, 8.0, d1=1.0)
        assert np.all(x >= 0) and np.all(x < 8.0)

    def test_hair_below_zero_wraps_to_zero_not_box_size(self):
        """``np.mod(-tiny, box) == box``: the wrap must not hand the
        histogram a coordinate on the excluded upper edge."""
        from repro.cosmo.histogram import particle_histogram

        box = 128.0
        psi = np.zeros((3, 4, 4, 4))
        psi[0, 0, 0, 0] = np.nextafter(-16.0, -np.inf)  # the lattice point is at 16
        assert np.mod(16.0 + psi[0, 0, 0, 0], box) == box
        x = displace_particles(psi, box, d1=1.0)
        assert x[0, 0] == 0.0
        assert np.all(x >= 0) and np.all(x < box)
        assert particle_histogram(x, 4, box).sum() == 64

    def test_growth_factor_scales(self):
        psi = np.zeros((3, 4, 4, 4))
        psi[0] = 0.5
        q = lattice_positions(4, 8.0)
        x = displace_particles(psi, 8.0, d1=2.0)
        np.testing.assert_allclose(x[:, 0], np.mod(q[:, 0] + 1.0, 8.0))

    def test_second_order_term_applied(self):
        psi1 = np.zeros((3, 4, 4, 4))
        psi2 = np.zeros((3, 4, 4, 4))
        psi2[1] = 1.0
        q = lattice_positions(4, 8.0)
        x = displace_particles(psi1, 8.0, d1=1.0, psi2=psi2, d2=-0.5)
        np.testing.assert_allclose(x[:, 1], np.mod(q[:, 1] - 0.5, 8.0))

    def test_psi2_without_d2_raises(self):
        psi = np.zeros((3, 4, 4, 4))
        with pytest.raises(ValueError):
            displace_particles(psi, 8.0, d1=1.0, psi2=psi)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            displace_particles(np.zeros((4, 4, 4)), 8.0, d1=1.0)
