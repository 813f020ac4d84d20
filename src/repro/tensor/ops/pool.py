"""Differentiable 3D average pooling: :class:`~repro.tensor.layers.AvgPool3D`."""

from __future__ import annotations

from repro.tensor.layers import AvgPool3D
from repro.tensor.tensor import Tensor

__all__ = ["avg_pool3d"]


def avg_pool3d(x, kernel=2, stride=None) -> Tensor:
    """Average pooling over the three spatial axes of ``(N, C, D, H, W)``.

    Stride defaults to the kernel size — CosmoFlow's pools are kernel 2,
    stride (2,2,2).
    """
    return AvgPool3D(kernel, stride, name="avg_pool3d")(x)
