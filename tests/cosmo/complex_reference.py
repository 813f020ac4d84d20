"""The full-spectrum (complex128) simulator and estimators: the executable
specification the real-FFT ``repro.cosmo`` is checked against.

This is the implementation ``repro.cosmo`` shipped before it moved to
real-to-complex transforms: every field goes through ``fftn``/``ifftn``
on the full ``n³`` grid and ``ifftn(...).real`` does the Hermitian
symmetrisation that the half-spectrum solver has to spell out as a
Nyquist rule (see ``SpectralGrid``).  It is kept as plain and as slow as
it was; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.cosmo.dataset_builder import SimulationConfig
from repro.cosmo.lpt import lattice_positions, second_order_growth
from repro.cosmo.nbody import ColaStepper, ParticleMesh
from repro.cosmo.power_spectrum import PowerSpectrum
from repro.utils.rng import new_rng


def fourier_grid(n: int, box_size: float):
    """``(kx, ky, kz, k_mag)`` broadcastable to the full ``(n, n, n)``."""
    k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=box_size / n)
    kx = k1d[:, None, None]
    ky = k1d[None, :, None]
    kz = k1d[None, None, :]
    return kx, ky, kz, np.sqrt(kx**2 + ky**2 + kz**2)


def gaussian_random_field(n, box_size, spectrum, rng=None):
    """``(delta, delta_k)`` with ``delta_k`` the full complex spectrum."""
    rng = new_rng(rng)
    _, _, _, k_mag = fourier_grid(n, box_size)
    white = rng.standard_normal((n, n, n))
    delta_k = np.fft.fftn(white) * np.sqrt(spectrum(k_mag) * n**3 / box_size**3)
    delta_k[0, 0, 0] = 0.0
    return np.fft.ifftn(delta_k).real, delta_k


def _inverse_k2(k_mag):
    k2 = k_mag**2
    with np.errstate(divide="ignore"):
        return np.where(k2 > 0.0, 1.0 / np.maximum(k2, 1e-30), 0.0)


def zeldovich_displacement(delta_k, box_size):
    n = delta_k.shape[0]
    kx, ky, kz, k_mag = fourier_grid(n, box_size)
    inv_k2 = _inverse_k2(k_mag)
    psi = np.empty((3,) + delta_k.shape, dtype=np.float64)
    for axis, k_axis in enumerate((kx, ky, kz)):
        psi[axis] = np.fft.ifftn(1j * k_axis * inv_k2 * delta_k).real
    return psi


def potential_hessian(delta_k, box_size):
    """φ_ij as ``(3, 3, n, n, n)`` (φ_k = −δ_k/k²)."""
    n = delta_k.shape[0]
    kx, ky, kz, k_mag = fourier_grid(n, box_size)
    ks = (kx, ky, kz)
    phi_k = -delta_k * _inverse_k2(k_mag)
    hess = np.empty((3, 3, n, n, n), dtype=np.float64)
    for i in range(3):
        for j in range(i, 3):
            hess[i, j] = hess[j, i] = np.fft.ifftn(-ks[i] * ks[j] * phi_k).real
    return hess


def lpt2_displacement(delta_k, box_size):
    hess = potential_hessian(delta_k, box_size)
    source = (
        hess[0, 0] * hess[1, 1]
        - hess[0, 1] ** 2
        + hess[0, 0] * hess[2, 2]
        - hess[0, 2] ** 2
        + hess[1, 1] * hess[2, 2]
        - hess[1, 2] ** 2
    )
    return zeldovich_displacement(np.fft.fftn(source), box_size)


class ComplexParticleMesh(ParticleMesh):
    """``ParticleMesh`` with the full-spectrum force solve."""

    def force_field(self, delta, deconvolve: int = 2):
        kx, ky, kz, _ = fourier_grid(self.n_grid, self.box_size)
        half = self.cell / 2.0

        def sinc2(k):
            x = k * half
            return np.where(np.abs(x) > 1e-12, np.sin(x) / np.where(x == 0, 1, x), 1.0) ** 2

        delta_k = np.fft.fftn(delta)
        if deconvolve:
            window = sinc2(kx) * sinc2(ky) * sinc2(kz)
            delta_k = delta_k / np.maximum(window, 0.15) ** deconvolve
        return zeldovich_displacement(delta_k, self.box_size)


def run_simulation(theta, config: SimulationConfig, seed: int = 0) -> np.ndarray:
    """The parent's ``run_simulation`` for 3-parameter ``theta``: separate
    Ψ⁽¹⁾ and Ψ⁽²⁾, and a bare ``np.mod`` wrap (no fold of ``box_size``)."""
    omega_m, sigma_8, n_s = (float(t) for t in theta)
    spectrum = PowerSpectrum(omega_m=omega_m, sigma_8=sigma_8, n_s=n_s, h=0.67)
    if config.redshift > 0:
        spectrum = spectrum.at_redshift(config.redshift)
    n, box = config.particle_grid, config.box_size
    _, delta_k = gaussian_random_field(n, box, spectrum, rng=new_rng(seed))
    psi1 = zeldovich_displacement(delta_k, box)
    if config.cola_steps > 0:
        stepper = ColaStepper(psi1, box, n_steps=config.cola_steps)
        stepper.pm = ComplexParticleMesh(n, box)
        return stepper.run()
    disp = 1.0 * psi1.reshape(3, -1).T
    if config.use_2lpt:
        d2 = second_order_growth(1.0, omega_m)
        disp = disp + d2 * lpt2_displacement(delta_k, box).reshape(3, -1).T
    return np.mod(lattice_positions(n, box) + disp, box)


# -- estimators ---------------------------------------------------------------


def _shell_average(values, bin_index, n_bins):
    valid = (bin_index >= 0) & (bin_index < n_bins)
    sums = np.bincount(bin_index[valid], weights=values[valid], minlength=n_bins)
    counts = np.bincount(bin_index[valid], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def measure_power_spectrum(delta, box_size, n_bins=16):
    n = delta.shape[0]
    _, _, _, k_mag = fourier_grid(n, box_size)
    power = np.abs(np.fft.fftn(delta)) ** 2 * box_size**3 / float(n) ** 6
    edges = np.geomspace(2.0 * np.pi / box_size * 0.999, np.pi * n / box_size, n_bins + 1)
    idx = np.digitize(k_mag.ravel(), edges) - 1
    return np.sqrt(edges[:-1] * edges[1:]), _shell_average(power.ravel(), idx, n_bins)


def two_point_correlation(delta, box_size, n_bins=16):
    n = delta.shape[0]
    corr = np.fft.ifftn(np.abs(np.fft.fftn(delta)) ** 2).real / n**3
    axis = np.minimum(np.arange(n), n - np.arange(n)) * (box_size / n)
    r = np.sqrt(
        axis[:, None, None] ** 2 + axis[None, :, None] ** 2 + axis[None, None, :] ** 2
    )
    edges = np.linspace(0.0, box_size / 2.0, n_bins + 1)
    idx = np.digitize(r.ravel(), edges) - 1
    return 0.5 * (edges[:-1] + edges[1:]), _shell_average(corr.ravel(), idx, n_bins)


def equilateral_bispectrum(delta, box_size, n_bins=6):
    n = delta.shape[0]
    _, _, _, k_mag = fourier_grid(n, box_size)
    delta_k = np.fft.fftn(delta)
    edges = np.geomspace(
        2.0 * np.pi / box_size * 0.999, np.pi * n / box_size / 1.5, n_bins + 1
    )
    out = np.full(n_bins, np.nan)
    for b in range(n_bins):
        mask = (k_mag >= edges[b]) & (k_mag < edges[b + 1])
        if not np.any(mask):
            continue
        d_shell = np.fft.ifftn(delta_k * mask).real
        i_shell = np.fft.ifftn(mask.astype(np.float64)).real
        den = np.sum(i_shell**3)
        if abs(den) < 1e-12:
            continue
        out[b] = np.sum(d_shell**3) / den * box_size**6 / float(n) ** 9
    return np.sqrt(edges[:-1] * edges[1:]), out
