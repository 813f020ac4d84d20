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


#: Axis-0 planes in one slab of the streamed transforms.  Measured at 64³:
#: one-plane slabs ran 1.22–1.42× slower than 8-plane ones.
_PLANES = 8


def _slabs(n: int) -> list:
    """The axis-0 slices a streamed pass over an ``n³`` box visits, in order."""
    return [slice(lo, min(lo + _PLANES, n)) for lo in range(0, n, _PLANES)]


def _wavenumbers(n: int, box_size: float) -> np.ndarray:
    """``k`` along one axis in h/Mpc, in ``numpy.fft.fftfreq``'s order."""
    if n < 2:
        raise ValueError(f"grid must be at least 2, got {n}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    return 2.0 * np.pi * np.fft.fftfreq(n, d=box_size / n)


def _k_mag(k1d: np.ndarray, planes: slice = slice(None)) -> np.ndarray:
    """``|k|`` on the axis-0 ``planes`` of the half spectrum whose axis
    wavenumbers are ``k1d``."""
    kz = k1d[None, None, : len(k1d) // 2 + 1]
    k_mag = k1d[planes, None, None] ** 2 + k1d[None, :, None] ** 2 + kz**2
    return np.sqrt(k_mag, out=k_mag)


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
    k1d = _wavenumbers(n, box_size)
    return k1d[:, None, None], k1d[None, :, None], k1d[None, None, : n // 2 + 1], _k_mag(k1d)


def _half_spectrum(n: int, slab_of) -> np.ndarray:
    """The half spectrum of the real ``n³`` field whose axis-0 slabs
    ``slab_of(planes)`` returns, asked for in order: per slab the real
    pass along axis 2 into the spectrum's slab and the complex one along
    axis 1 in place, then the axis-0 pass over the whole spectrum."""
    field_k = np.empty((n, n, n // 2 + 1), np.complex128)
    for planes in _slabs(n):
        slab_k = field_k[planes]
        np.fft.rfft(slab_of(planes), axis=2, out=slab_k)
        np.fft.fft(slab_k, axis=1, out=slab_k)
    np.fft.fft(field_k, axis=0, out=field_k)
    return field_k


def half_spectrum(field: np.ndarray) -> np.ndarray:
    """The half spectrum ``(n, n, n//2 + 1)`` of a real ``n³`` field.

    The 1-D passes of ``numpy.fft.rfftn`` in its order — real transform
    along the last axis, then complex ones along axes 1 and 0 — so the
    bits are ``rfftn``'s; the complex passes overwrite their own array
    instead of allocating one each.
    """
    field = np.asarray(field)
    return _half_spectrum(len(field), field.__getitem__)


def _slab_buffer(n: int):
    """A ``slab_of`` that hands out one real slab buffer: each slab asked
    for overwrites the one before."""
    buffer = np.empty((_slabs(n)[0].stop, n, n))
    return lambda planes: buffer[: planes.stop - planes.start]


def _real_slabs(work_k: np.ndarray, slab_of):
    """Inverse of :func:`half_spectrum`, a slab at a time.  Consumes
    ``work_k``: the axis-0 pass of ``numpy.fft.irfftn`` runs over it in
    place, then per slab of axis-0 planes the axis-1 pass in place and the
    real one along axis 2 into ``slab_of(planes)``.  Yields ``(planes,
    real slab)``."""
    n = len(work_k)
    np.fft.ifft(work_k, axis=0, out=work_k)
    for planes in _slabs(n):
        slab_k = work_k[planes]
        np.fft.ifft(slab_k, axis=1, out=slab_k)
        yield planes, np.fft.irfft(slab_k, n=n, axis=2, out=slab_of(planes))


def _real_field_into(work_k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of :func:`half_spectrum` into the real ``n³`` buffer ``out``,
    consuming ``work_k`` (see :func:`_real_slabs`)."""
    for _ in _real_slabs(work_k, out.__getitem__):
        pass
    return out


def real_field(field_k: np.ndarray) -> np.ndarray:
    """The real ``n³`` field whose half spectrum ``(n, n, n//2 + 1)`` is
    ``field_k`` (the inverse of :func:`half_spectrum`; ``n`` is needed
    because the half spectrum alone does not say whether it is even)."""
    n = field_k.shape[0]
    return _real_field_into(field_k.astype(np.complex128), np.empty((n, n, n)))


def gaussian_random_modes(n: int, box_size: float, spectrum: PowerSpectrum, rng=None):
    """Realize ``δ_k`` — the half spectrum of δ, shape
    ``(n, n, n//2 + 1)`` — of a Gaussian field with ensemble spectrum
    ``spectrum``; what the LPT displacement solvers consume.

    The white noise is drawn a slab at a time into the forward transform,
    and ``|k|`` and ``P(|k|)`` are evaluated a slab at a time: the bits of
    one ``(n, n, n)`` draw and whole-box passes, without their arrays.

    Parameters
    ----------
    n, box_size
        Grid cells per side and box side length (Mpc/h).
    spectrum
        Target power spectrum (callable k -> P(k)).
    rng
        Seed or generator.
    """
    k1d = _wavenumbers(n, box_size)
    rng, noise = new_rng(rng), _slab_buffer(n)
    delta_k = _half_spectrum(n, lambda planes: rng.standard_normal(out=noise(planes)))
    for planes in _slabs(n):
        slab_k = delta_k[planes]
        slab_k *= np.sqrt(spectrum(_k_mag(k1d, planes)) * n**3 / box_size**3)
    delta_k[0, 0, 0] = 0.0  # zero mean: delta is a contrast field
    return delta_k


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
