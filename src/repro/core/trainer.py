"""In-memory training data: the minimal dataset protocol every
execution backend consumes, and the cube-symmetry augmentation.

The training loop itself is :class:`repro.core.engine.TrainingEngine`;
this module only holds what feeds it when the samples fit in memory.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["InMemoryData", "random_cube_symmetry"]


def random_cube_symmetry(volume: np.ndarray, rng) -> np.ndarray:
    """Apply a random element of the cube's 48-fold symmetry group to
    the spatial axes of a ``(C, D, H, W)`` volume.

    The cosmological density field is statistically isotropic, so all
    48 axis permutations x reflections are label-preserving — the
    augmentation that lets a small training set constrain a 3D CNN
    (Ravanbakhsh et al. use the same trick; the paper "duplicate[s]"
    its training set once).
    """
    if volume.ndim != 4:
        raise ValueError(f"expected (C, D, H, W) volume, got {volume.shape}")
    perm = rng.permutation(3)
    out = np.transpose(volume, (0,) + tuple(1 + perm))
    flips = tuple(axis + 1 for axis in range(3) if rng.random() < 0.5)
    if flips:
        out = np.flip(out, axis=flips)
    return np.ascontiguousarray(out)


class InMemoryData:
    """The minimal dataset protocol: ``len()`` and ``batches()``.

    Wraps ``(volumes, normalized_targets)`` arrays.  The I/O pipeline in
    :mod:`repro.io.pipeline` implements the same protocol backed by
    record files and prefetch threads.

    With ``augment=True`` every volume of a shuffled pass gets a cube
    symmetry drawn from that pass's ``rng`` (see
    :func:`random_cube_symmetry`); an unshuffled pass — evaluation —
    reads the volumes as stored.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, augment: bool = False):
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.float32)
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} samples but y has {len(y)}")
        if len(x) == 0:
            raise ValueError("dataset is empty")
        self.x = x
        self.y = y
        self.augment = augment

    def __len__(self) -> int:
        return len(self.x)

    def batches(
        self, batch_size: int = 1, rng=None, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` minibatches; drops no samples (last batch may
        be short)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        rng = new_rng(rng)
        n = len(self)
        order = np.arange(n)
        if shuffle:
            rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = self.x[idx]
            if self.augment and shuffle:
                xb = np.stack([random_cube_symmetry(v, rng) for v in xb])
            yield xb, self.y[idx]

    def shard(self, rank: int, n_ranks: int) -> "InMemoryData":
        """The round-robin shard a data-parallel rank trains on."""
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks}")
        return InMemoryData(self.x[rank::n_ranks], self.y[rank::n_ranks], augment=self.augment)
