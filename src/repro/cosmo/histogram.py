"""Particle gridding and sub-volume extraction.

Paper, Section IV-C: "This volume is histogrammed into a 2563-voxel 3D
histogram of particle counts using the python function
numpy.histogramdd, and then split into 8 sub-volumes" of 128³ voxels
each.  We return that function's counts — the edges are uniform, so a
particle's cell is computed, not searched for; the call itself is the
specification in ``tests/cosmo/histogramdd_reference.py`` — and make the
same 2x2x2 split.
"""

from __future__ import annotations

import numpy as np

__all__ = ["particle_histogram", "split_subvolumes"]

#: Particles binned per pass: one block's index temporaries stay in cache
#: instead of whole-catalogue arrays streaming through memory.
_BLOCK = 16384


def particle_histogram(positions: np.ndarray, n_bins: int, box_size: float) -> np.ndarray:
    """Histogram particle positions into an ``n_bins³`` count cube.

    Returns what ``numpy.histogramdd`` returns over the edges
    ``np.linspace(0, box_size, n_bins + 1)``, count for count.  Counts
    sum to the particle count: every coordinate must be finite and lie
    in ``[0, box_size)`` (use periodic wrapping upstream).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    _check_in_box(positions, box_size)
    cells = np.zeros(len(positions), dtype=np.intp)
    for start in range(0, len(positions), _BLOCK):
        block = positions[start : start + _BLOCK]
        for axis in range(3):
            _bin_axis(cells[start : start + _BLOCK], block[:, axis], n_bins, box_size)
    return _counts(cells, n_bins)


def _check_in_box(x: np.ndarray, box_size: float) -> None:
    """Raise unless every coordinate of ``x`` is finite and in ``[0, box_size)``."""
    # ``initial``: no particles is a valid histogram; a NaN fails both tests
    lo, hi = x.min(initial=0.0), x.max(initial=0.0)
    if not (lo >= 0.0 and hi < box_size):
        n_bad = x.size - np.count_nonzero(np.isfinite(x))
        if n_bad:
            raise ValueError(f"{n_bad} of {x.size} coordinates are not finite")
        raise ValueError("positions must lie in [0, box_size); wrap them first")


def _bin_axis(cells: np.ndarray, x: np.ndarray, n_bins: int, box_size: float) -> None:
    """``cells = cells · n_bins + bin(x)``, in place, for one axis's
    coordinates ``x``, which must lie in ``[0, box_size)``: from zeros, the
    three axes in order leave each particle's flat cell in ``cells``.

    The edges are uniform, so a coordinate's bin among them is computed,
    not searched for.
    """
    edges = np.linspace(0.0, box_size, n_bins + 1)
    idx = (x * (n_bins / box_size)).astype(np.intp)
    np.minimum(idx, n_bins - 1, out=idx)
    # Rounding leaves the candidate at most one bin off: one step each way
    # against the edges gives edges[idx] <= x < edges[idx + 1].
    idx -= x < edges.take(idx)
    idx += x >= edges.take(idx + 1)
    cells *= n_bins
    cells += idx


def _counts(cells: np.ndarray, n_bins: int) -> np.ndarray:
    """The ``n_bins³`` count cube of the flat cells ``cells``."""
    counts = np.bincount(cells.ravel(), minlength=n_bins**3)
    return counts.reshape(n_bins, n_bins, n_bins).astype(np.float64)


def split_subvolumes(volume: np.ndarray, splits: int = 2) -> np.ndarray:
    """Split a cube into ``splits³`` equal sub-cubes.

    The paper splits each 256³ histogram into 8 sub-volumes of 128³
    (``splits=2``).  Returns ``(splits³, s, s, s)`` with
    ``s = n // splits``; the cube side must be divisible by ``splits``.
    """
    volume = np.asarray(volume)
    if volume.ndim != 3 or len(set(volume.shape)) != 1:
        raise ValueError(f"volume must be a cube, got shape {volume.shape}")
    n = volume.shape[0]
    if splits < 1 or n % splits != 0:
        raise ValueError(f"cube side {n} not divisible by splits={splits}")
    s = n // splits
    out = np.empty((splits**3, s, s, s), dtype=volume.dtype)
    idx = 0
    for i in range(splits):
        for j in range(splits):
            for k in range(splits):
                out[idx] = volume[
                    i * s : (i + 1) * s, j * s : (j + 1) * s, k * s : (k + 1) * s
                ]
                idx += 1
    return out
