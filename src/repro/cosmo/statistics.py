"""Summary statistics of density fields.

Two roles:

* validation — the measured power spectrum of a generated field must
  match the input P(k) (the round-trip test of the whole IC pipeline);
* the "traditional statistical methods" feature set the paper's
  deep-learning approach is compared against ("two- or three-point
  correlation functions or other reduced statistics").
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cosmo.initial_conditions import fourier_grid, half_spectrum, real_field

__all__ = [
    "measure_power_spectrum",
    "two_point_correlation",
    "equilateral_bispectrum",
    "density_moments",
    "summary_features",
]


def _mode_weights(n: int) -> np.ndarray:
    """How many modes of the full ``n³`` spectrum each half-spectrum
    entry stands for, shape ``(1, 1, n//2 + 1)``: 1 on the self-conjugate
    planes (``k_z = 0`` and, for even ``n``, ``k_z = n/2``), 2 elsewhere —
    so shell averages over the half spectrum equal those over the full
    one."""
    weights = np.full((1, 1, n // 2 + 1), 2.0)
    weights[..., 0] = 1.0
    if n % 2 == 0:
        weights[..., -1] = 1.0
    return weights


def measure_power_spectrum(
    delta: np.ndarray,
    box_size: float,
    n_bins: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spherically averaged power spectrum estimate P̂(k).

    Uses the estimator matching the generator convention of
    :mod:`repro.cosmo.initial_conditions`::

        P̂(k) = |FFT(δ)|² · V / N⁶

    evaluated on the half spectrum of the real field (each entry weighted
    by the number of full-spectrum modes it stands for) and binned
    logarithmically in |k| between the fundamental mode and the
    Nyquist frequency.  Returns ``(k_centers, P̂)``; empty bins get NaN.
    """
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    if delta.shape != (n, n, n):
        raise ValueError(f"delta must be cubic, got {delta.shape}")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    _, _, _, k_mag = fourier_grid(n, box_size)
    power = np.abs(half_spectrum(delta)) ** 2 * box_size**3 / float(n) ** 6
    weights = np.broadcast_to(_mode_weights(n), power.shape).ravel()

    k_fund = 2.0 * np.pi / box_size
    k_nyq = np.pi * n / box_size
    edges = np.geomspace(k_fund * 0.999, k_nyq, n_bins + 1)
    k_flat = k_mag.ravel()
    p_flat = power.ravel()
    idx = np.digitize(k_flat, edges) - 1
    valid = (idx >= 0) & (idx < n_bins)

    sums = np.bincount(idx[valid], weights=(weights * p_flat)[valid], minlength=n_bins)
    counts = np.bincount(idx[valid], weights=weights[valid], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        p_binned = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    k_centers = np.sqrt(edges[:-1] * edges[1:])
    return k_centers, p_binned


def two_point_correlation(
    delta: np.ndarray,
    box_size: float,
    n_bins: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spherically averaged two-point correlation function ξ(r).

    The statistic the paper names first among the "traditional
    statistical methods" cosmologists use to characterize clumpiness
    ("two- or three-point correlation functions").  Computed exactly as
    its definition demands — the Fourier transform of the power
    spectrum: ``ξ(r) = IFFT(|δ_k|²) / N³`` binned in separation ``r``
    (the FFT evaluates all pair separations at once, the standard
    periodic-box estimator).

    Returns ``(r_centers, xi)``; ``ξ(0)`` equals the field variance,
    which the tests pin down.
    """
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    if delta.shape != (n, n, n):
        raise ValueError(f"delta must be cubic, got {delta.shape}")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    delta_k = half_spectrum(delta)
    # correlation = IFFT of the power: <δ(x)δ(x+r)> over the periodic box
    corr = real_field(np.abs(delta_k) ** 2) / n**3

    cell = box_size / n
    axis = np.minimum(np.arange(n), n - np.arange(n)) * cell  # periodic distance
    r = np.sqrt(
        axis[:, None, None] ** 2 + axis[None, :, None] ** 2 + axis[None, None, :] ** 2
    )
    r_max = box_size / 2.0
    edges = np.linspace(0.0, r_max, n_bins + 1)
    idx = np.digitize(r.ravel(), edges) - 1
    valid = (idx >= 0) & (idx < n_bins)
    sums = np.bincount(idx[valid], weights=corr.ravel()[valid], minlength=n_bins)
    counts = np.bincount(idx[valid], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        xi = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, xi


def equilateral_bispectrum(
    delta: np.ndarray,
    box_size: float,
    n_bins: int = 6,
) -> Tuple[np.ndarray, np.ndarray]:
    """Equilateral reduced bispectrum B(k, k, k) — the three-point statistic.

    The other reduced statistic the paper names ("two- or three-point
    correlation functions").  A Gaussian field has zero bispectrum;
    gravitational collapse generates a positive one, so B measures the
    non-Gaussianity the CNN can exploit beyond P(k).

    FFT-shell estimator (Watkinson et al. 2017 style): for each k bin,
    build the band-limited field ``d(x) = IFFT(δ_k · 1[k ∈ bin])`` and
    the mode-count field ``i(x) = IFFT(1[k ∈ bin])``; then

        B̂(k) = (Σ_x d³ / Σ_x i³) · V² / N⁹

    with V the box volume (the normalization follows from the
    ``P̂ = |δ_k|² V / N⁶`` convention of this module; the tests pin the
    Gaussian-zero, cubic-scaling and collapse-positivity properties).

    Returns ``(k_centers, B)`` in (Mpc/h)^6; bins whose closed-triangle
    count vanishes give NaN.
    """
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    if delta.shape != (n, n, n):
        raise ValueError(f"delta must be cubic, got {delta.shape}")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    _, _, _, k_mag = fourier_grid(n, box_size)
    delta_k = half_spectrum(delta)

    k_fund = 2.0 * np.pi / box_size
    k_nyq = np.pi * n / box_size
    # equilateral triangles need k <= 2/3 of the diagonal Nyquist; stay safe
    edges = np.geomspace(k_fund * 0.999, k_nyq / 1.5, n_bins + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    out = np.full(n_bins, np.nan)
    norm = box_size**6 / float(n) ** 9
    for b in range(n_bins):
        mask = (k_mag >= edges[b]) & (k_mag < edges[b + 1])
        if not np.any(mask):
            continue
        d_shell = real_field(delta_k * mask)
        i_shell = real_field(mask.astype(np.float64))
        den = np.sum(i_shell**3)
        if abs(den) < 1e-12:
            continue
        out[b] = np.sum(d_shell**3) / den * norm
    return centers, out


def density_moments(delta: np.ndarray) -> dict:
    """Variance, skewness and kurtosis of a density field — the
    "reduced statistics" of the traditional approach."""
    delta = np.asarray(delta, dtype=np.float64)
    centered = delta - delta.mean()
    var = float(np.mean(centered**2))
    if var <= 0:
        return {"variance": 0.0, "skewness": 0.0, "kurtosis": 0.0}
    std = np.sqrt(var)
    return {
        "variance": var,
        "skewness": float(np.mean(centered**3) / std**3),
        "kurtosis": float(np.mean(centered**4) / var**2 - 3.0),
    }


def summary_features(
    volume: np.ndarray,
    box_size: float,
    n_bins: int = 12,
) -> np.ndarray:
    """Feature vector for the statistical baseline: binned log-power
    spectrum plus density moments.

    ``volume`` is a (sub-)volume of particle counts or density contrast;
    counts are converted to contrast internally.
    """
    volume = np.asarray(volume, dtype=np.float64)
    mean = volume.mean()
    delta = volume / mean - 1.0 if mean > 0 and volume.min() >= 0 else volume
    k, p = measure_power_spectrum(delta, box_size, n_bins=n_bins)
    logp = np.log10(np.where(np.isfinite(p) & (p > 0), p, 1e-30))
    moments = density_moments(delta)
    return np.concatenate(
        [logp, [moments["variance"], moments["skewness"], moments["kurtosis"]]]
    ).astype(np.float64)
