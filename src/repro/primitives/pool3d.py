"""3D average pooling as a constant-weight convolution.

The paper: "Average pooling is a special case of the convolution
operator: each channel is averaged separately, and the weights array is
a constant (each element being ``1/(KS)^3`` for a kernel of size KS)".

CosmoFlow uses kernel 2, stride (2,2,2), no padding.  These kernels
support arbitrary kernel/stride combinations with valid (floor)
semantics — odd input extents simply drop the trailing voxels, which is
what produces the 27³ -> 13³ stage in the reconstructed topology.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.primitives.conv3d import _shape_cached, _triple, conv3d_output_shape

__all__ = ["pool3d_output_shape", "avg_pool3d_forward", "avg_pool3d_backward"]

Shape3 = Tuple[int, int, int]


@_shape_cached
def _geometry(input_shape, kernel, stride) -> Tuple[Shape3, Shape3, Shape3]:
    """Normalised ``(kernel, stride, output shape)`` of one pooling shape,
    derived once (see :mod:`repro.primitives.conv3d`, *Derived once*)."""
    kernel = _triple(kernel)
    stride = kernel if stride is None else _triple(stride)
    return kernel, stride, conv3d_output_shape(input_shape, kernel, stride, padding=0)


def pool3d_output_shape(input_shape: Shape3, kernel, stride=None) -> Shape3:
    """Output spatial shape; stride defaults to the kernel (as in CosmoFlow)."""
    return _geometry(input_shape, kernel, stride)[2]


def avg_pool3d_forward(x: np.ndarray, kernel, stride=None) -> np.ndarray:
    """Average-pool an ``(N, C, D, H, W)`` tensor.

    Accumulates one strided view per kernel offset — the same
    kernel-offset decomposition used by the convolution kernels, with
    the constant weight folded into a single final scale.  This keeps
    the operator bandwidth-bound, as the paper observes it is.
    """
    if x.ndim != 5:
        raise ValueError(f"expected NCDHW input, got shape {x.shape}")
    (kd, kh, kw), (sd, sh, sw), (od, oh, ow) = _geometry(x.shape[2:], kernel, stride)
    acc = np.zeros((x.shape[0], x.shape[1], od, oh, ow), dtype=np.float64)
    # A float64 sum in offset order: that order is the output's bits.
    for zd in range(kd):
        for zh in range(kh):
            for zw in range(kw):
                acc += x[
                    :,
                    :,
                    zd : zd + sd * od : sd,
                    zh : zh + sh * oh : sh,
                    zw : zw + sw * ow : sw,
                ]
    acc /= kd * kh * kw
    return acc.astype(x.dtype, copy=False)


def avg_pool3d_backward(
    grad_out: np.ndarray, input_shape: Shape3, kernel, stride=None
) -> np.ndarray:
    """Gradient of average pooling w.r.t. its input.

    Each input voxel inside a window receives ``grad / K^3``; voxels
    dropped by floor semantics (odd extents) receive zero.
    """
    (kd, kh, kw), (sd, sh, sw), expected = _geometry(input_shape, kernel, stride)
    n, c, od, oh, ow = grad_out.shape
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {input_shape} "
            f"(expected {expected})"
        )
    scaled = grad_out / np.array(kd * kh * kw, dtype=grad_out.dtype)
    shape = (n, c) + tuple(input_shape)
    if (sd, sh, sw) == (kd, kh, kw):
        # Windows tile the input (CosmoFlow's only case): each voxel lies in
        # at most one, so its gradient is a copy — a repeat along W, then
        # one broadcast copy along D and H into the output, whose only
        # temporary is a kd*kh-th of its size — and only an odd extent
        # leaves a tail outside every window.
        rows = scaled.repeat(kw, axis=4)[:, :, :, None, :, None, :]
        tiled = (n, c, od, kd, oh, kh, ow * kw)
        if (kd * od, kh * oh, kw * ow) == tuple(input_shape):
            grad_in = np.empty(shape, dtype=grad_out.dtype)
            grad_in.reshape(tiled)[...] = rows
            return grad_in
        grad_in = np.zeros(shape, dtype=grad_out.dtype)
        grad_in[:, :, : kd * od, : kh * oh, : kw * ow].reshape(tiled)[...] = rows
        return grad_in
    # Overlapping windows accumulate into a voxel (the order of the adds is
    # its bits); where none can overlap an offset's pass assigns, and gaps
    # stay zero.  One strided pass per offset either way.
    grad_in = np.zeros(shape, dtype=grad_out.dtype)
    overlapping = sd < kd or sh < kh or sw < kw
    for zd in range(kd):
        for zh in range(kh):
            for zw in range(kw):
                window = grad_in[
                    :,
                    :,
                    zd : zd + sd * od : sd,
                    zh : zh + sh * oh : sh,
                    zw : zw + sw * ow : sw,
                ]
                if overlapping:
                    window += scaled
                else:
                    window[...] = scaled
    return grad_in
