"""Weight initializers.

He/Kaiming initialization (scaled for leaky ReLU) for convolution and
FC weights, zeros for biases — the standard choices for a deep
leaky-ReLU regression network like CosmoFlow.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["he_normal", "zeros", "conv3d_fan_in", "dense_fan_in"]


def conv3d_fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in of a ``(OC, IC, KD, KH, KW)`` convolution weight."""
    if len(shape) != 5:
        raise ValueError(f"expected 5D conv weight shape, got {shape}")
    _, ic, kd, kh, kw = shape
    return ic * kd * kh * kw


def dense_fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in of an ``(IN, OUT)`` dense weight."""
    if len(shape) != 2:
        raise ValueError(f"expected 2D dense weight shape, got {shape}")
    return shape[0]


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 5:
        return conv3d_fan_in(shape)
    if len(shape) == 2:
        return dense_fan_in(shape)
    raise ValueError(f"cannot infer fan-in for shape {shape}")


def he_normal(shape, rng=None, leaky_alpha: float = 0.0, dtype=np.float32) -> np.ndarray:
    """Kaiming-normal init: ``std = sqrt(2 / ((1 + alpha^2) * fan_in))``."""
    rng = new_rng(rng)
    fan = _fan_in(tuple(shape))
    std = np.sqrt(2.0 / ((1.0 + leaky_alpha**2) * fan))
    return (rng.standard_normal(shape) * std).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)
