"""Differentiable 3D convolution: :class:`~repro.tensor.layers.Conv3D`
over given weight tensors.

This is the framework/primitive boundary the paper optimizes across:
TensorFlow's Conv3D op calling into MKL-DNN's forward, backward-data
and backward-weights kernels.  The kernel implementation is selected
through :mod:`repro.primitives.registry` ("gemm" unless named
otherwise), and the layer's backward makes one kernel call,
``ConvImpl.backward``, which returns every gradient asked for.
"""

from __future__ import annotations

from repro.tensor.layers import Conv3D
from repro.tensor.tensor import Tensor

__all__ = ["conv3d"]


def conv3d(x, w, bias=None, stride=1, padding=0, impl: str | None = None) -> Tensor:
    """3D convolution with autograd.

    Parameters
    ----------
    x
        Input ``(N, IC, D, H, W)`` tensor.
    w
        Weights ``(OC, IC, KD, KH, KW)`` tensor.
    bias
        Optional ``(OC,)`` tensor.
    stride, padding
        Int or 3-tuple.
    impl
        Kernel implementation name (``None`` -> registry default).
    """
    w = w if isinstance(w, Tensor) else Tensor(w)
    b = None if bias is None else (bias if isinstance(bias, Tensor) else Tensor(bias))
    layer = Conv3D.over("conv3d", weight=w, bias=b, stride=stride, padding=padding, impl=impl)
    return layer(x)
