"""The paper's gridding call and the ``np.mod`` wrap: the executable
specification the exact-arithmetic ``repro.cosmo.histogram`` and
``repro.cosmo.lpt.wrap_periodic`` are checked against.

Paper, Section IV-C: "This volume is histogrammed into a 2563-voxel 3D
histogram of particle counts using the python function
numpy.histogramdd".  These are the two function bodies ``repro.cosmo``
shipped while it made that call itself, kept as plain and as slow as they
were (three binary searches per particle, libm ``fmod`` per coordinate);
nothing in ``src/`` imports them.
"""

from __future__ import annotations

import numpy as np


def particle_histogram(positions: np.ndarray, n_bins: int, box_size: float) -> np.ndarray:
    """Histogram particle positions into an ``n_bins³`` count cube.

    Uses ``numpy.histogramdd`` — the exact call the paper's pipeline
    makes.  Counts sum to the particle count (all particles must lie in
    ``[0, box_size)``; use periodic wrapping upstream).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if np.any(positions < 0.0) or np.any(positions >= box_size):
        raise ValueError("positions must lie in [0, box_size); wrap them first")
    edges = np.linspace(0.0, box_size, n_bins + 1)
    hist, _ = np.histogramdd(positions, bins=(edges, edges, edges))
    return hist


def wrap_periodic(positions: np.ndarray, box_size: float) -> np.ndarray:
    """Wrap coordinates into ``[0, box_size)``, in place.

    ``np.mod`` alone returns ``box_size`` itself for a coordinate a hair
    below zero (``np.mod(-1e-17, 128.0) == 128.0``); that image is folded
    to ``0.0``.
    """
    np.mod(positions, box_size, out=positions)
    positions[positions == box_size] = 0.0
    return positions
