"""Lagrangian perturbation theory displacements (Zel'dovich and 2LPT).

The COLA method (Tassev et al. 2013, the algorithm inside pycola)
splits particle trajectories into an analytic LPT part plus a small
residual integrated numerically.  This module provides the LPT part:

* first order (Zel'dovich): ``Ψ⁽¹⁾_k = i k / k² δ_k``;
* second order: source ``S = ½ Σ_{i≠j} (φ_ii φ_jj − φ_ij²)`` built from
  the first-order potential's Hessian, then ``Ψ⁽²⁾_k = i k / k² S_k``
  with the standard growth prefactor ``D₂ ≈ −(3/7) D₁² Ω_m^{−1/143}``
  applied at displacement time.

Every field here is real, so spectra are half spectra — the
``(n, n, n//2 + 1)`` layout of ``numpy.fft.rfftn`` — and
:class:`SpectralGrid` holds the rule that keeps derivative multipliers
Hermitian on them.

Particles start on a uniform lattice (one per cell) and are displaced
with periodic wrapping — exactly pycola's setup.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.cosmo.initial_conditions import (
    _k_mag,
    _real_slabs,
    _slab_buffer,
    _slabs,
    _wavenumbers,
    half_spectrum,
)

__all__ = [
    "SpectralGrid",
    "zeldovich_displacement",
    "lpt2_displacement",
    "lpt_displacement",
    "lattice_positions",
    "displace_particles",
    "second_order_growth",
]


class SpectralGrid:
    """Derivative and inverse-Laplacian multipliers of one periodic
    ``n³`` box on the half spectrum ``(n, n, n//2 + 1)``, built once per
    solve.

    An inverse real transform reads its input as Hermitian, so each
    multiplier ``M(k)`` must itself satisfy ``M(−k) = M(k)*``.  On an
    even grid the Nyquist index is its own mirror (``k_a(−k) = k_a(k) =
    −k_N``), which makes the multipliers differ by derivative order:

    * ``∂_a`` — ``i k_a`` is anti-Hermitian there, so ``k_a`` is zeroed
      at the Nyquist index (:attr:`k_odd`);
    * ``∂_a∂_a`` — ``k_a²`` is symmetric everywhere: unzeroed :attr:`k`;
    * ``∂_a∂_b``, a ≠ b — ``k_a k_b`` flips sign under ``k → −k`` where
      exactly one index is Nyquist (zeroed) and keeps it where both are:
      the zeroed product plus ``k_N²`` on that line.
    """

    def __init__(self, n: int, box_size: float):
        k1d = self._k1d = _wavenumbers(n, box_size)
        self.k = [k1d[:, None, None], k1d[None, :, None], k1d[None, None, : n // 2 + 1]]
        self.n = n
        self.k_odd = [k.copy() for k in self.k]
        if n % 2 == 0:
            for axis, k in enumerate(self.k_odd):
                k[(0,) * axis + (n // 2,)] = 0.0
        self._k_nyquist2 = (np.pi * n / box_size) ** 2

    def _over_k2(self, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``spectrum / k²`` into ``out`` (either may be the other), as the
        product with ``1/k²``, the ``k = 0`` mode zeroed (the mean mode
        carries no force).  ``1/k²`` is rebuilt a slab at a time, so no
        whole ``1/k²`` or ``|k|`` grid is ever held."""
        for planes in _slabs(self.n):
            k2 = _k_mag(self._k1d, planes) ** 2
            # where k² is 0 the division is skipped and that 0 stays
            inv_k2 = np.divide(1.0, k2, out=k2, where=k2 > 0.0)
            np.multiply(inv_k2, spectrum[planes], out=out[planes])
        return out

    @classmethod
    def for_spectrum(cls, field_k: np.ndarray, box_size: float) -> "SpectralGrid":
        """The grid of the box whose half spectrum ``field_k`` is."""
        n = field_k.shape[0]
        if field_k.shape != (n, n, n // 2 + 1):
            raise ValueError(
                f"expected a half spectrum (n, n, n//2 + 1), got {field_k.shape}"
            )
        return cls(n, box_size)

    def inverse_gradient(self, field_k: np.ndarray) -> np.ndarray:
        """``∇∇⁻² f`` as ``(3, n, n, n)``: the inverse transforms of
        ``i k_a f_k / k²`` — the displacement solving ``∇·Ψ = −f``."""
        return self._gradient(field_k.astype(np.complex128))

    def _gradient(self, field_k: np.ndarray) -> np.ndarray:
        """:meth:`inverse_gradient` of a spectrum the caller gives up."""
        psi = np.empty((3,) + (self.n,) * 3)
        for _ in self._stream_gradient(field_k, psi):
            pass
        return psi

    def _stream_gradient(self, field_k: np.ndarray, out=None):
        """The components of :meth:`inverse_gradient` as axis-0 slabs,
        component by component: yields ``(axis, planes, slab)``.

        Consumes ``field_k`` (scaled by ``1/k²`` in place).  With ``out``,
        three ``n³`` arrays (strided ones too, such as the columns of the
        positions), each slab is that slab of its component's entry;
        without, one slab buffer the next slab overwrites.
        """
        base = self._over_k2(field_k, out=field_k)
        work = np.empty_like(base)
        buffer = _slab_buffer(self.n) if out is None else None
        for axis, k_axis in enumerate(self.k_odd):
            np.multiply(1j * k_axis, base, out=work)
            slab_of = buffer or out[axis].__getitem__
            for planes, slab in _real_slabs(work, slab_of):
                yield axis, planes, slab

    def lpt2_source(self, delta_k: np.ndarray) -> np.ndarray:
        """``S(x) = Σ_{a<b} (φ_aa φ_bb − φ_ab²)`` from the six distinct
        second derivatives of the displacement potential
        (``φ_k = −δ_k/k²``, so ``(∂_a∂_b φ)_k = k_a k_b δ_k/k²``)."""
        n = self.n
        work = np.empty(delta_k.shape, np.result_type(np.float64, delta_k))

        buffer = _slab_buffer(n)

        def second_derivative(multiplier, slab_of=buffer):
            # (δ_k/k²)·M rounds as M·(δ_k/k²), so no scaled copy of δ_k is
            # kept beside the work spectrum: each derivative scales afresh
            self._over_k2(delta_k, out=work)
            np.multiply(work, multiplier, out=work)
            return _real_slabs(work, slab_of)

        # Two real buffers for six derivatives: ``d00 d11 + (d00 + d11) d22``
        # consumes d11 and d22 slab by slab as they are solved, and each
        # mixed derivative is squared and subtracted a slab at a time.
        source, d00 = np.empty((n, n, n)), np.empty((n, n, n))
        for _ in second_derivative(self.k[0] ** 2, d00.__getitem__):
            pass
        for planes, d11 in second_derivative(self.k[1] ** 2):
            total, first = source[planes], d00[planes]
            np.multiply(first, d11, out=total)
            first += d11
        for planes, d22 in second_derivative(self.k[2] ** 2):
            total, first = source[planes], d00[planes]
            first *= d22
            total += first
        for a, b in ((0, 1), (0, 2), (1, 2)):
            mixed = self.k_odd[a] * self.k_odd[b]
            if n % 2 == 0:
                line = [0, 0, 0]
                line[a] = line[b] = n // 2
                mixed[tuple(line)] = self._k_nyquist2
            for planes, off in second_derivative(mixed):
                off *= off
                total = source[planes]
                total -= off
        return source


def zeldovich_displacement(delta_k: np.ndarray, box_size: float) -> np.ndarray:
    """First-order displacement field from the Fourier density contrast.

    Parameters
    ----------
    delta_k
        The half spectrum ``(n, n, n//2 + 1)`` of δ on an ``n³`` grid.
    box_size
        Box side (Mpc/h).

    Returns
    -------
    ``(3, n, n, n)`` real displacement components in Mpc/h (per unit
    growth factor — multiply by D₁ for a given epoch).
    """
    grid = SpectralGrid.for_spectrum(delta_k, box_size)
    return grid.inverse_gradient(delta_k)


def lpt2_displacement(delta_k: np.ndarray, box_size: float) -> np.ndarray:
    """Second-order LPT displacement (per unit D₂), from the half
    spectrum ``delta_k``.

    Source: ``S(x) = Σ_{i<j} (φ_ii φ_jj − φ_ij²)``; then the
    displacement solves ``∇·Ψ⁽²⁾ = S`` in Fourier space.
    """
    return lpt_displacement(delta_k, box_size, d1=0.0, d2=1.0)


def _lpt_spectrum(grid: SpectralGrid, delta_k: np.ndarray, d1: float, d2: float):
    """``D₁ δ_k + D₂ S_k``, a spectrum the caller owns: both LPT orders
    apply the same linear operator, so it is applied once to this sum.
    Consumes ``delta_k``: ``D₁ δ_k`` is formed in its storage."""
    total_k = half_spectrum(grid.lpt2_source(delta_k))
    total_k *= d2
    delta_k *= d1
    total_k += delta_k
    return total_k


def lpt_displacement(
    delta_k: np.ndarray, box_size: float, d1: float, d2: float
) -> np.ndarray:
    """``D₁ Ψ⁽¹⁾ + D₂ Ψ⁽²⁾`` as ``(3, n, n, n)``, in one inverse
    transform per axis (see :func:`_lpt_spectrum`)."""
    grid = SpectralGrid.for_spectrum(delta_k, box_size)
    return grid._gradient(_lpt_spectrum(grid, delta_k.astype(np.complex128), d1, d2))


def second_order_growth(d1: float, omega_m: float) -> float:
    """``D₂ ≈ −(3/7) D₁² Ω_m^{−1/143}`` (Bouchet et al. 1995)."""
    if not 0.0 < omega_m <= 1.0:
        raise ValueError(f"omega_m out of range: {omega_m}")
    return -(3.0 / 7.0) * d1**2 * omega_m ** (-1.0 / 143.0)


def lattice_positions(n: int, box_size: float) -> np.ndarray:
    """Unperturbed particle lattice: one particle per cell, at the cell
    centers ``q_i = (i + ½) Δ``, shape ``(n³, 3)`` in Mpc/h.

    Centers are staggered half a cell from the FFT sample points: a
    particle exactly on a grid point sits at the *kink* of the CIC
    kernel, where the deposit responds nonlinearly to displacements.
    Staggering keeps the kernel response linear (standard PM practice).
    Displacement fields sampled at grid points and applied to centers
    translate the realized structure rigidly by half a cell, which is
    statistically irrelevant; the COLA stepper interpolates fields to
    particle positions, avoiding even that.
    """
    x = np.zeros((n**3, 3))
    cube = x.reshape(n, n, n, 3)
    for axis in range(3):
        _onto_lattice(cube[..., axis], axis, slice(None), box_size)
    return x


def _onto_lattice(x: np.ndarray, axis: int, planes: slice, box_size: float) -> np.ndarray:
    """Coordinate ``axis`` of the particles on the axis-0 ``planes`` of the
    lattice, from their displacements ``x`` (``(len(planes), n, n)``), in
    place: each lattice center added (``Ψ + q`` is bitwise ``q + Ψ``),
    then wrapped into the box."""
    n = x.shape[1]
    centers = (np.arange(n) + 0.5) * (box_size / n)
    x += (centers[planes, None, None], centers[:, None], centers)[axis]
    return wrap_periodic(x, box_size)


#: Elements of ``D₂ Ψ⁽²⁾`` :func:`displace_particles` forms at a time.
_BLOCK = 1 << 16


def displace_particles(
    psi1,
    box_size: float,
    d1: float,
    psi2=None,
    d2: float | None = None,
) -> np.ndarray:
    """Apply LPT displacements to the lattice, with periodic wrapping.

    ``x = q + D₁ Ψ⁽¹⁾(q) [+ D₂ Ψ⁽²⁾(q)]``.  ``psi1`` (and ``psi2``) is
    any iterable of the three ``n³`` components — a ``(3, n, n, n)``
    array, or a generator whose components reuse one buffer: each is
    read once, before the next is asked for.  Returns ``(n³, 3)``
    positions in ``[0, box_size)``.
    """
    if psi2 is not None and d2 is None:
        raise ValueError("psi2 given without its growth factor d2")
    wrong = "displacements must be three (n, n, n) components"
    n, done = None, 0
    seconds = psi2 if psi2 is not None else repeat(None)
    for first, second in zip(psi1, seconds):
        shape = np.shape(first)
        if n is None and len(shape) == 3:
            n = shape[0]
            x = np.empty((n**3, 3))
        if done == 3 or shape != (n, n, n) or (
            second is not None and np.shape(second) != shape
        ):
            raise ValueError(wrong)
        # the displacement lands in its column of the positions; the second
        # order is added a block at a time, so no n³ temporary is made
        column = x[:, done]
        np.multiply(d1, np.ravel(first), out=column)
        if second is not None:
            second = np.ravel(second)
            for lo in range(0, n**3, _BLOCK):
                column[lo : lo + _BLOCK] += d2 * second[lo : lo + _BLOCK]
        _onto_lattice(column.reshape(n, n, n), done, slice(None), box_size)
        done += 1
    if done != 3:
        raise ValueError(wrong)
    return x


def wrap_periodic(positions: np.ndarray, box_size: float) -> np.ndarray:
    """Wrap coordinates into ``[0, box_size)``, in place: the bits of
    ``np.mod`` with its image ``box_size`` folded to ``0.0``
    (``np.mod(-1e-17, 128.0) == 128.0``).

    Within one box of the interval ``np.mod`` is one operation: below zero
    ``fmod(x, L)`` is ``x`` and the result ``x + L`` rounded once; in
    ``[L, 2L)`` it is ``x - L``, exact.  LPT displacements stay in that
    range, so no libm ``fmod`` runs; anything farther out, NaN and ±inf
    (they fail the range test) go through ``np.mod`` itself.
    """
    # ``initial``: an empty array has no extremes, and 0.0 is in every box
    lo, hi = positions.min(initial=0.0), positions.max(initial=0.0)
    if -box_size <= lo and hi < 2.0 * box_size:
        # signbit, not ``< 0``: -0.0 goes to L and, like a sum that rounds
        # up to L, is folded to +0.0 by the subtraction — as np.mod has it.
        np.add(positions, box_size, out=positions, where=np.signbit(positions))
        np.subtract(positions, box_size, out=positions, where=positions >= box_size)
    else:
        np.mod(positions, box_size, out=positions)
        positions[positions == box_size] = 0.0
    return positions
