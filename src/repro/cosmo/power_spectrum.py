"""Linear ΛCDM matter power spectrum and growth factor.

The physics MUSIC needs to seed a simulation: P(k) for the chosen
(ΩM, σ8, ns) and the linear growth factor D(a).  We use the BBKS
(Bardeen et al. 1986) transfer function — smooth, parameter-dependent,
and accurate to a few percent, which is ample for a learning problem
whose task is *recovering* the parameters from realizations (MUSIC
itself offers Eisenstein–Hu; the substitution is recorded in
DESIGN.md).

Conventions: distances in Mpc/h, wavenumbers in h/Mpc; σ8 is the RMS of
the density field smoothed with an 8 Mpc/h top-hat, which fixes the
spectrum's amplitude::

    sigma_R^2 = (1 / 2 pi^2) ∫ P(k) W^2(kR) k^2 dk,
    W(x) = 3 (sin x - x cos x) / x^3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PowerSpectrum", "growth_factor", "tophat_window", "bbks_transfer"]


def tophat_window(x: np.ndarray) -> np.ndarray:
    """Fourier transform of a spherical top-hat, W(x) = 3(sin x - x cos x)/x^3.

    Uses the series limit W(0) = 1 for tiny arguments.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-6
    xn = x[nz]
    out[nz] = 3.0 * (np.sin(xn) - xn * np.cos(xn)) / xn**3
    return out


def bbks_transfer(k: np.ndarray, omega_m: float, h: float = 0.67) -> np.ndarray:
    """BBKS cold-dark-matter transfer function T(k).

    ``k`` in h/Mpc; shape parameter Γ = ΩM h.
    """
    k = np.asarray(k, dtype=np.float64)
    gamma = omega_m * h
    q = k / gamma
    q = np.maximum(q, 1e-12)
    return (
        np.log(1.0 + 2.34 * q)
        / (2.34 * q)
        * (1.0 + 3.89 * q + (16.1 * q) ** 2 + (5.46 * q) ** 3 + (6.71 * q) ** 4) ** -0.25
    )


def growth_factor(a: float, omega_m: float) -> float:
    """Linear growth factor D(a) for flat ΛCDM (ΩΛ = 1 − ΩM), normalized
    to D(1) = 1.

    ``D(a) ∝ H(a) ∫_0^a da' / (a' H(a'))^3`` (Heath 1977).
    """
    if not 0.0 < a <= 1.0 + 1e-12:
        raise ValueError(f"scale factor must be in (0, 1], got {a}")
    if not 0.0 < omega_m <= 1.0:
        raise ValueError(f"omega_m must be in (0, 1], got {omega_m}")
    # Imported here, not at module top: only spectra at z > 0 need it, and
    # it costs ~0.5 s and ~44 MB in every process that imports repro.cosmo.
    from scipy import integrate

    omega_l = 1.0 - omega_m

    def hubble(a_):
        return np.sqrt(omega_m / a_**3 + omega_l)

    def unnormalized(a_):
        integral, _ = integrate.quad(
            lambda x: 1.0 / (x * hubble(x)) ** 3, 1e-8, a_, limit=200
        )
        return hubble(a_) * integral

    return unnormalized(a) / unnormalized(1.0)


@dataclass
class PowerSpectrum:
    """σ8-normalized linear matter power spectrum P(k) at z = 0.

    Parameters are the three the network predicts; ``h`` is held fixed
    (the paper varies only ΩM, σ8, ns).
    """

    omega_m: float = 0.3089
    sigma_8: float = 0.8159
    n_s: float = 0.9667
    h: float = 0.67
    _amplitude: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if not 0.0 < self.omega_m <= 1.0:
            raise ValueError(f"omega_m out of range: {self.omega_m}")
        if self.sigma_8 <= 0.0:
            raise ValueError(f"sigma_8 must be positive: {self.sigma_8}")
        self._amplitude = 1.0
        unnorm = self._sigma_r_unnormalized(8.0)
        self._amplitude = (self.sigma_8 / unnorm) ** 2

    def unnormalized(self, k: np.ndarray) -> np.ndarray:
        """Shape-only spectrum ``k^ns T(k)^2`` (amplitude applied in
        :meth:`__call__`)."""
        k = np.asarray(k, dtype=np.float64)
        return np.where(
            k > 0.0, k**self.n_s * bbks_transfer(k, self.omega_m, self.h) ** 2, 0.0
        )

    def __call__(self, k: np.ndarray) -> np.ndarray:
        """P(k) in (Mpc/h)^3 for k in h/Mpc; P(0) = 0."""
        return self._amplitude * self.unnormalized(k)

    def _sigma_r_unnormalized(self, radius: float) -> float:
        # Fixed dense log-k trapezoid: deterministic, so the σ8 used to
        # set the amplitude and any later sigma_r(8) query are exactly
        # self-consistent (adaptive quadrature refines differently per
        # call and breaks that identity at the 1e-5 level).
        lnk = np.linspace(np.log(1e-5), np.log(1e3), 6000)
        k = np.exp(lnk)
        integrand = (
            self._amplitude * self.unnormalized(k) * tophat_window(k * radius) ** 2 * k**3
        )
        integral = np.trapezoid(integrand, lnk)
        return float(np.sqrt(integral / (2.0 * np.pi**2)))

    def sigma_r(self, radius: float) -> float:
        """RMS fluctuation in a top-hat of ``radius`` Mpc/h."""
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        return self._sigma_r_unnormalized(radius)

    def at_redshift(self, z: float) -> "PowerSpectrum":
        """The linearly-evolved spectrum at redshift ``z``: amplitude
        scaled by D(z)^2 via an adjusted σ8."""
        if z < 0.0:
            raise ValueError(f"redshift must be >= 0, got {z}")
        d = growth_factor(1.0 / (1.0 + z), self.omega_m)
        return PowerSpectrum(self.omega_m, self.sigma_8 * d, self.n_s, self.h)
