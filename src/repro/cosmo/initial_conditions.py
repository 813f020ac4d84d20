"""Gaussian random-field initial conditions (MUSIC substitute).

MUSIC's job in the paper's pipeline: realize a Gaussian random density
contrast field δ(x) on a grid whose ensemble power spectrum is the
linear P(k) of the chosen cosmology.

Normalization convention (used consistently by the estimator in
:mod:`repro.cosmo.statistics`, and verified round-trip in the tests):
with ``N³`` cells in a box of volume ``V = L³``, a field δ with
``δ_k = FFT(δ)`` has estimated spectrum ``P̂(k) = |δ_k|² V / N⁶``.  We
therefore draw white noise ``w`` (unit variance per cell), transform,
and scale by ``sqrt(P(k) N³ / V_cell) / N^{3/2} = sqrt(P(k) / V) ...``
— concretely ``δ_k = W_k sqrt(P(k) N³ / L³)`` so that
``E[P̂] = P``.
"""

from __future__ import annotations

import numpy as np

from repro.cosmo.power_spectrum import PowerSpectrum
from repro.utils.rng import new_rng

__all__ = [
    "fourier_grid",
    "half_spectrum",
    "real_field",
    "gaussian_random_modes",
    "gaussian_random_field",
    "zero_nyquist",
    "field_rms",
]


def fourier_grid(n: int, box_size: float):
    """Wavenumber grids for the half spectrum of a real ``n³`` field in a
    box of side ``box_size`` (Mpc/h).

    Returns ``(kx, ky, kz, k_mag)`` broadcastable to ``(n, n, n//2 + 1)``
    — the layout of ``numpy.fft.rfftn`` — in h/Mpc.  All three axes
    follow ``numpy.fft.fftfreq``'s sign convention, so on an even grid
    the Nyquist entry is ``−k_N`` on the truncated last axis too
    (``rfftfreq`` would give ``+k_N``, and a plain ``k_a k_z`` product
    the wrong sign on the line where both indices are Nyquist).
    """
    if n < 2:
        raise ValueError(f"grid must be at least 2, got {n}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=box_size / n)
    kx = k1d[:, None, None]
    ky = k1d[None, :, None]
    kz = k1d[None, None, : n // 2 + 1]
    k_mag = kx**2 + ky**2 + kz**2
    np.sqrt(k_mag, out=k_mag)
    return kx, ky, kz, k_mag


def half_spectrum(field: np.ndarray) -> np.ndarray:
    """The half spectrum ``(n, n, n//2 + 1)`` of a real ``n³`` field.

    The 1-D passes of ``numpy.fft.rfftn`` in its order — real transform
    along the last axis, then complex ones along axes 1 and 0 — so the
    bits are ``rfftn``'s; the complex passes overwrite their own array
    instead of allocating one each.
    """
    field_k = np.fft.rfft(field, axis=2)
    np.fft.fft(field_k, axis=1, out=field_k)
    np.fft.fft(field_k, axis=0, out=field_k)
    return field_k


def _real_field_into(work_k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of :func:`half_spectrum` into the real ``n³`` buffer ``out``.
    Consumes ``work_k``: the complex passes of ``numpy.fft.irfftn`` (axis
    0, then 1) run in place on it before the real one fills ``out``."""
    np.fft.ifft(work_k, axis=0, out=work_k)
    np.fft.ifft(work_k, axis=1, out=work_k)
    return np.fft.irfft(work_k, n=out.shape[2], axis=2, out=out)


def real_field(field_k: np.ndarray) -> np.ndarray:
    """The real ``n³`` field whose half spectrum ``(n, n, n//2 + 1)`` is
    ``field_k`` (the inverse of :func:`half_spectrum`; ``n`` is needed
    because the half spectrum alone does not say whether it is even)."""
    n = field_k.shape[0]
    return _real_field_into(field_k.astype(np.complex128), np.empty((n, n, n)))


def _random_modes(k_mag: np.ndarray, box_size: float, spectrum: PowerSpectrum, rng):
    """:func:`gaussian_random_modes` on the ``|k|`` grid of a box the
    caller has already laid out."""
    n = k_mag.shape[0]
    delta_k = half_spectrum(new_rng(rng).standard_normal((n, n, n)))
    delta_k *= np.sqrt(spectrum(k_mag) * n**3 / box_size**3)
    delta_k[0, 0, 0] = 0.0  # zero mean: delta is a contrast field
    return delta_k


def gaussian_random_modes(n: int, box_size: float, spectrum: PowerSpectrum, rng=None):
    """Realize ``δ_k`` — the half spectrum of δ, shape
    ``(n, n, n//2 + 1)`` — of a Gaussian field with ensemble spectrum
    ``spectrum``; what the LPT displacement solvers consume.

    Parameters
    ----------
    n, box_size
        Grid cells per side and box side length (Mpc/h).
    spectrum
        Target power spectrum (callable k -> P(k)).
    rng
        Seed or generator.
    """
    return _random_modes(fourier_grid(n, box_size)[3], box_size, spectrum, rng)


def gaussian_random_field(n: int, box_size: float, spectrum: PowerSpectrum, rng=None):
    """Realize δ(x) on an ``n³`` grid: the inverse transform of
    :func:`gaussian_random_modes` (same arguments, same draw).

    ``float64``, with ``delta.mean()`` exactly zero by construction
    (δ_k[0] = 0).
    """
    return real_field(gaussian_random_modes(n, box_size, spectrum, rng))


def zero_nyquist(delta_k: np.ndarray) -> np.ndarray:
    """Zero the Nyquist planes of a Fourier field (even grids only);
    works on the half spectrum and on a full ``n³`` one.

    Spectral derivative operators (``i k``) are ill-defined at the
    Nyquist frequency of an even grid: the mode's imaginary part cannot
    be represented in a real field, so identities like ``∇·Ψ = −δ``
    hold exactly only on Nyquist-free fields.  Filtering is standard
    practice for LPT displacement solvers.
    """
    out = np.array(delta_k, copy=True)
    n = out.shape[0]
    if n % 2 == 0:
        m = n // 2
        out[m, :, :] = 0.0
        out[:, m, :] = 0.0
        out[:, :, m] = 0.0
    return out


def field_rms(delta: np.ndarray) -> float:
    """RMS of a density field (diagnostic)."""
    return float(np.sqrt(np.mean(np.square(delta))))
