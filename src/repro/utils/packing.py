"""Flatten/unflatten packing of per-tensor arrays into one message.

Synchronous data-parallel training moves the model update as a single
flat buffer (the paper's 28.15 MB message): every rank's step message
(:func:`repro.comm.plugin.gradient_message`) concatenates the
per-layer gradients before communicating, and the reduced message is
sliced back into the per-layer layout afterwards.  This module is the
one implementation of both, so a flatten/unflatten round trip is
bitwise lossless on every code path.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["flatten_arrays", "unflatten_arrays", "unflatten_like"]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate ``arrays`` into one 1-D buffer, in order.

    A single input is ravelled without a copy when its memory layout
    allows, so the hot single-tensor path does not pay for packing.
    """
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        raise ValueError("flatten_arrays needs at least one array")
    if len(arrays) == 1:
        return arrays[0].ravel()
    return np.concatenate([a.ravel() for a in arrays])


def unflatten_arrays(
    flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Slice ``flat`` back into views shaped like ``shapes``, in order.

    The inverse of :func:`flatten_arrays`: element values and order are
    preserved bitwise.  Raises if the total size does not match.
    """
    flat = np.asarray(flat)
    if flat.ndim != 1:
        raise ValueError(f"expected a 1-D buffer, got shape {flat.shape}")
    out: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape, dtype=np.int64))
        if offset + size > flat.size:
            raise ValueError(
                f"flat buffer of {flat.size} elements too small for shapes {list(shapes)}"
            )
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    if offset != flat.size:
        raise ValueError(
            f"flat buffer has {flat.size} elements but shapes account for {offset}"
        )
    return out


def unflatten_like(flat: np.ndarray, like: Sequence[np.ndarray]) -> List[np.ndarray]:
    """:func:`unflatten_arrays` with shapes taken from template arrays."""
    return unflatten_arrays(flat, [np.shape(a) for a in like])
