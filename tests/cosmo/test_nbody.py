"""Tests for the particle-mesh solver and COLA stepping."""

import numpy as np
import pytest

from repro.cosmo.initial_conditions import gaussian_random_field, gaussian_random_modes
from repro.cosmo.lpt import displace_particles, lattice_positions, zeldovich_displacement
from repro.cosmo.nbody import ColaStepper, ParticleMesh
from repro.cosmo.power_spectrum import PowerSpectrum


class TestParticleMesh:
    def test_deposit_mass_conservation(self):
        pm = ParticleMesh(8, 64.0)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 64.0, size=(500, 3))
        delta = pm.deposit(pos)
        # sum of (1 + delta) * mean == particle count
        total = (delta + 1.0).sum() * (500 / 8**3)
        assert total == pytest.approx(500.0, rel=1e-10)

    def test_uniform_lattice_zero_contrast(self):
        pm = ParticleMesh(8, 64.0)
        delta = pm.deposit(lattice_positions(8, 64.0))
        np.testing.assert_allclose(delta, 0.0, atol=1e-10)

    def test_deposit_localizes_mass(self):
        pm = ParticleMesh(8, 8.0)
        # particle exactly at a cell center -> all weight in one cell
        pos = np.array([[0.5, 0.5, 0.5]])
        delta = pm.deposit(pos)
        assert delta[0, 0, 0] == delta.max()

    def test_interpolate_constant_field(self):
        pm = ParticleMesh(8, 64.0)
        field = np.ones((3, 8, 8, 8)) * np.array([1.0, 2.0, 3.0])[:, None, None, None]
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 64.0, size=(100, 3))
        vals = pm.interpolate(field, pos)
        expect = np.broadcast_to([1.0, 2.0, 3.0], vals.shape)
        np.testing.assert_allclose(vals, expect, rtol=1e-9)

    def test_force_points_toward_overdensity(self):
        """Particles to either side of a smooth density peak feel force
        toward it.  (A smooth blob, not a single-voxel spike — spectral
        Poisson solves ring on un-resolved point sources.)"""
        n, box = 16, 16.0
        pm = ParticleMesh(n, box)
        centers = (np.arange(n) + 0.5) * (box / n)
        xx, yy, zz = np.meshgrid(centers, centers, centers, indexing="ij")
        r2 = (xx - 8.5) ** 2 + (yy - 8.5) ** 2 + (zz - 8.5) ** 2
        delta = np.exp(-r2 / (2 * 1.5**2))
        delta -= delta.mean()
        g = pm.force_field(delta)
        probe = np.array([[5.5, 8.5, 8.5], [11.5, 8.5, 8.5]])
        forces = pm.interpolate(g, probe)
        assert forces[0, 0] > 0  # left of peak: pushed right
        assert forces[1, 0] < 0  # right of peak: pushed left

    def test_total_momentum_injection_zero(self):
        """The mean of g = ∇∇⁻²δ vanishes (no net force on the box)."""
        n, box = 16, 64.0
        pm = ParticleMesh(n, box)
        delta = gaussian_random_field(n, box, PowerSpectrum(), rng=2)
        g = pm.force_field(delta)
        np.testing.assert_allclose(g.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleMesh(1, 64.0)
        with pytest.raises(ValueError):
            ParticleMesh(8, -1.0)
        pm = ParticleMesh(8, 64.0)
        with pytest.raises(ValueError):
            pm.deposit(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            pm.force_field(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            pm.interpolate(np.zeros((3, 4, 4, 4)), np.zeros((5, 3)))


class TestColaStepper:
    def test_zero_field_stays_on_lattice(self):
        n, box = 8, 64.0
        psi1 = np.zeros((3, n, n, n))
        stepper = ColaStepper(psi1, box, n_steps=4)
        x = stepper.run()
        np.testing.assert_allclose(x, lattice_positions(n, box), atol=1e-8)

    def test_linear_field_residual_small(self):
        """For a weak (linear) field the PM force matches linear theory
        and the COLA residual stays tiny relative to the ZA displacement."""
        n, box = 16, 256.0
        ps = PowerSpectrum(sigma_8=0.1)
        dk = gaussian_random_modes(n, box, ps, rng=3)
        psi1 = zeldovich_displacement(dk, box)
        stepper = ColaStepper(psi1, box, n_steps=5)
        x, residual = stepper.run(return_residual=True)
        za = displace_particles(psi1, box, d1=1.0)
        assert np.abs(residual).max() < 0.1 * np.abs(psi1).max()
        # positions close to ZA (periodic-aware comparison)
        diff = np.abs(x - za)
        diff = np.minimum(diff, box - diff)
        assert diff.max() < 0.2 * box / n

    def test_nonlinear_field_moves_off_za(self):
        n, box = 16, 32.0
        ps = PowerSpectrum(sigma_8=0.9)
        dk = gaussian_random_modes(n, box, ps, rng=4)
        psi1 = zeldovich_displacement(dk, box)
        x, residual = ColaStepper(psi1, box, n_steps=5).run(return_residual=True)
        assert np.abs(residual).max() > 0

    def test_positions_in_box(self):
        n, box = 8, 32.0
        dk = gaussian_random_modes(n, box, PowerSpectrum(), rng=5)
        psi1 = zeldovich_displacement(dk, box)
        x = ColaStepper(psi1, box, n_steps=3).run()
        assert np.all(x >= 0) and np.all(x < box)

    def test_validation(self):
        psi = np.zeros((3, 4, 4, 4))
        with pytest.raises(ValueError):
            ColaStepper(np.zeros((4, 4, 4)), 8.0)
        with pytest.raises(ValueError):
            ColaStepper(psi, 8.0, n_steps=0)
        with pytest.raises(ValueError):
            ColaStepper(psi, 8.0, tau_init=1.5)
