"""Particle-mesh force solver and COLA time stepping (pycola substitute).

pycola implements the COLA (COmoving Lagrangian Acceleration) method:
particle trajectories are split into an analytic LPT part and a small
residual integrated with a handful of particle-mesh (PM) timesteps,
"preserv[ing] N-body accuracy at large scales, but ... significantly
faster to run than a traditional N-body code".

:class:`ParticleMesh` provides the numerical machinery: cloud-in-cell
(CIC) mass deposit, a spectral Poisson solve for the force field, and
CIC force interpolation back to particles.

:class:`ColaStepper` integrates the residual around the Zel'dovich
trajectory.  Time integration detail (documented substitution): we use
the linear growth factor ``τ = D₁(a)`` as the time variable with the
Einstein–de-Sitter form of the equations of motion, in which the
Zel'dovich trajectory is the exact linear solution for *any* ΛCDM
cosmology::

    y'' + (3 / 2τ) y' = (3 / 2τ²) (g_pm(x) − τ Ψ⁽¹⁾(q)),    x = q + τ Ψ⁽¹⁾ + y

where ``g_pm = ∇∇⁻²δ`` is the PM force and ``τ Ψ⁽¹⁾(q)`` is the force
linear theory predicts.  For an exactly linear field the residual
source vanishes identically and particles follow Zel'dovich — the
property the tests pin down.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.cosmo.initial_conditions import half_spectrum
from repro.cosmo.lpt import SpectralGrid, lattice_positions, wrap_periodic

__all__ = ["ParticleMesh", "ColaStepper"]


class ParticleMesh:
    """CIC deposit + spectral Poisson force on a periodic grid."""

    def __init__(self, n_grid: int, box_size: float):
        if n_grid < 2:
            raise ValueError(f"n_grid must be >= 2, got {n_grid}")
        if box_size <= 0:
            raise ValueError(f"box_size must be positive, got {box_size}")
        self.n_grid = n_grid
        self.box_size = box_size
        self.cell = box_size / n_grid

    # -- CIC helpers -----------------------------------------------------------

    def _cic_weights(self, positions: np.ndarray):
        """Base cell indices and weights for cloud-in-cell assignment.

        Returns ``(i0, frac)``: integer lower-cell index and fractional
        offset per axis, both ``(n_particles, 3)``.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        # Grid-point convention: cell i holds the field value at x = i Δ,
        # matching how the inverse FFT samples the spectral fields.
        u = positions / self.cell
        i0 = np.floor(u).astype(np.int64)
        frac = u - i0
        return i0, frac

    def deposit(self, positions: np.ndarray) -> np.ndarray:
        """CIC mass deposit; returns the density *contrast* δ (mean 0).

        Total deposited mass equals the particle count exactly (each
        particle's eight CIC weights sum to one) — the conservation law
        the tests check.
        """
        n = self.n_grid
        i0, frac = self._cic_weights(positions)
        rho = np.zeros((n, n, n), dtype=np.float64)
        for dx in (0, 1):
            wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
            ix = np.mod(i0[:, 0] + dx, n)
            for dy in (0, 1):
                wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
                iy = np.mod(i0[:, 1] + dy, n)
                for dz in (0, 1):
                    wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                    iz = np.mod(i0[:, 2] + dz, n)
                    np.add.at(rho, (ix, iy, iz), wx * wy * wz)
        mean = positions.shape[0] / n**3
        return rho / mean - 1.0

    @cached_property
    def _spectral(self) -> SpectralGrid:
        return SpectralGrid(self.n_grid, self.box_size)

    def _cic_window(self) -> np.ndarray:
        """Fourier transform of the CIC assignment window on the half
        spectrum, ``W(k) = Π_i sinc²(k_i Δ/2)`` with Δ the cell size."""
        kx, ky, kz = self._spectral.k
        half = self.cell / 2.0

        def sinc2(k):
            x = k * half
            return np.where(np.abs(x) > 1e-12, np.sin(x) / np.where(x == 0, 1, x), 1.0) ** 2

        return sinc2(kx) * sinc2(ky) * sinc2(kz)

    def force_field(self, delta: np.ndarray, deconvolve: int = 2) -> np.ndarray:
        """The force field ``g = ∇ ∇⁻² δ`` (3, n, n, n).

        This is the same operator as the Zel'dovich displacement — for a
        linear field the PM force *is* the displacement field, which is
        what makes the COLA residual vanish in the linear limit.

        ``deconvolve`` divides by the CIC window that many times (2 =
        compensate both the deposit and the force-gather smoothing, the
        standard PM choice); 0 disables.  The correction is clamped to
        avoid amplifying Nyquist-adjacent noise.
        """
        if delta.shape != (self.n_grid,) * 3:
            raise ValueError(f"delta must be {(self.n_grid,) * 3}, got {delta.shape}")
        delta_k = half_spectrum(delta)
        if deconvolve:
            delta_k /= np.maximum(self._cic_window(), 0.15) ** deconvolve
        return self._spectral.inverse_gradient(delta_k)

    def interpolate(self, field: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """CIC gather of a ``(3, n, n, n)`` field at particle positions.

        Uses the same kernel as :meth:`deposit` (required for momentum
        conservation: deposit/gather adjointness).
        """
        n = self.n_grid
        if field.shape != (3, n, n, n):
            raise ValueError(f"field must be (3, {n}, {n}, {n}), got {field.shape}")
        i0, frac = self._cic_weights(positions)
        out = np.zeros((positions.shape[0], 3), dtype=np.float64)
        for dx in (0, 1):
            wx = (1.0 - frac[:, 0]) if dx == 0 else frac[:, 0]
            ix = np.mod(i0[:, 0] + dx, n)
            for dy in (0, 1):
                wy = (1.0 - frac[:, 1]) if dy == 0 else frac[:, 1]
                iy = np.mod(i0[:, 1] + dy, n)
                for dz in (0, 1):
                    wz = (1.0 - frac[:, 2]) if dz == 0 else frac[:, 2]
                    iz = np.mod(i0[:, 2] + dz, n)
                    w = (wx * wy * wz)[:, None]
                    out += w * field[:, ix, iy, iz].T
        return out


class ColaStepper:
    """Integrate the COLA residual around the Zel'dovich trajectory."""

    def __init__(
        self,
        psi1: np.ndarray,
        box_size: float,
        n_steps: int = 10,
        tau_init: float = 0.2,
        pm_grid: int | None = None,
    ):
        n = psi1.shape[1]
        if psi1.shape != (3, n, n, n):
            raise ValueError(f"psi1 must be (3, n, n, n), got {psi1.shape}")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 < tau_init < 1.0:
            raise ValueError("tau_init must be in (0, 1)")
        self.psi1 = psi1
        self.box_size = box_size
        self.n_steps = n_steps
        self.tau_init = tau_init
        self.n_particles_side = n
        self.pm = ParticleMesh(pm_grid or n, box_size)
        self.q = lattice_positions(n, box_size)
        # Ψ¹ gathered at the (staggered) particle positions with the same
        # CIC kernel the force uses, so the linear-theory reference force
        # and the PM force see identically sampled fields.
        gather_pm = self.pm if self.pm.n_grid == n else ParticleMesh(n, box_size)
        self.psi1_flat = gather_pm.interpolate(psi1, self.q)

    def _positions(self, tau: float, y: np.ndarray) -> np.ndarray:
        return wrap_periodic(self.q + tau * self.psi1_flat + y, self.box_size)

    def _residual_accel(self, tau: float, y: np.ndarray) -> np.ndarray:
        """(3/2τ²) (g_pm(x) − τ Ψ¹(q)) — zero for an exactly linear field."""
        x = self._positions(tau, y)
        delta = self.pm.deposit(x)
        g = self.pm.interpolate(self.pm.force_field(delta), x)
        return 1.5 / tau**2 * (g - tau * self.psi1_flat)

    def run(self, return_residual: bool = False):
        """Integrate from ``τ_init`` to 1 with kick-drift-kick steps.

        Returns final positions ``(n³, 3)``; with ``return_residual``,
        also the residual displacement ``y`` (a diagnostic: small for
        quasi-linear fields).
        """
        taus = np.linspace(self.tau_init, 1.0, self.n_steps + 1)
        y = np.zeros_like(self.psi1_flat)
        v = np.zeros_like(y)  # dy/dτ
        for t0, t1 in zip(taus[:-1], taus[1:]):
            dt = t1 - t0
            # Half kick (with the 3/(2τ) Hubble-like friction term).
            a0 = self._residual_accel(t0, y) - (1.5 / t0) * v
            v = v + 0.5 * dt * a0
            # Drift.
            y = y + dt * v
            # Half kick at the new time.
            a1 = self._residual_accel(t1, y) - (1.5 / t1) * v
            v = v + 0.5 * dt * a1
        x = self._positions(1.0, y)
        if return_residual:
            return x, y
        return x
