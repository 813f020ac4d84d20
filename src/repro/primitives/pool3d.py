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

from repro.primitives.conv3d import _triple, conv3d_output_shape

__all__ = ["pool3d_output_shape", "avg_pool3d_forward", "avg_pool3d_backward"]

Shape3 = Tuple[int, int, int]


def pool3d_output_shape(input_shape: Shape3, kernel, stride=None) -> Shape3:
    """Output spatial shape; stride defaults to the kernel (as in CosmoFlow)."""
    kernel = _triple(kernel)
    stride = kernel if stride is None else _triple(stride)
    return conv3d_output_shape(input_shape, kernel, stride, padding=0)


def avg_pool3d_forward(x: np.ndarray, kernel, stride=None) -> np.ndarray:
    """Average-pool an ``(N, C, D, H, W)`` tensor.

    Accumulates one strided view per kernel offset — the same
    kernel-offset decomposition used by the convolution kernels, with
    the constant weight folded into a single final scale.  This keeps
    the operator bandwidth-bound, as the paper observes it is.
    """
    if x.ndim != 5:
        raise ValueError(f"expected NCDHW input, got shape {x.shape}")
    kernel = _triple(kernel)
    stride = kernel if stride is None else _triple(stride)
    od, oh, ow = pool3d_output_shape(x.shape[2:], kernel, stride)
    kd, kh, kw = kernel
    sd, sh, sw = stride
    acc = np.zeros((x.shape[0], x.shape[1], od, oh, ow), dtype=np.float64)
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
    kernel = _triple(kernel)
    stride = kernel if stride is None else _triple(stride)
    n, c, od, oh, ow = grad_out.shape
    expected = pool3d_output_shape(input_shape, kernel, stride)
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {input_shape} "
            f"(expected {expected})"
        )
    kd, kh, kw = kernel
    sd, sh, sw = stride
    scaled = grad_out / np.array(kd * kh * kw, dtype=grad_out.dtype)
    grad_in = np.zeros((n, c) + tuple(input_shape), dtype=grad_out.dtype)
    # Windows that do not overlap (CosmoFlow's kernel 2, stride 2) touch
    # each voxel once: assign instead of read-add-write.
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
