"""The two-pass gemm backward as it stood before the single
``conv3d_backward``: the executable specification of its results.

A self-contained copy of the parent commit's ``conv3d_backward_data`` and
``conv3d_backward_weights`` with the helpers they used — each pass
re-derives its geometry, builds its own shifted gradient and runs its own
GEMM.  ``tests/primitives/test_conv3d_backward.py`` holds the one backward
to these bit for bit, and to the same exception types and messages.

It also keeps the data-movement loops the kernels no longer run: the
slab-loop :func:`_pack` (``kd*kh`` copies per pack-tap) and the
offset-loop :func:`avg_pool3d_backward` (``K^3`` strided assignments),
which ``tests/primitives/test_single_copy.py`` holds the one-gather pack
and the tiling pool gradient to, byte for byte.
Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

Shape3 = Tuple[int, int, int]


def _triple(v) -> Shape3:
    """Normalize an int or 3-sequence to a 3-tuple of ints."""
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or length-3 value, got {v!r}")
    return t


def conv3d_output_shape(
    input_shape: Shape3, kernel: Shape3, stride=1, padding=0
) -> Shape3:
    """Spatial output shape of a 3D convolution.

    ``out = floor((in + 2*pad - kernel) / stride) + 1`` per axis.
    """
    kernel = _triple(kernel)
    stride = _triple(stride)
    padding = _triple(padding)
    out = []
    for i, (size, k, s, p) in enumerate(zip(input_shape, kernel, stride, padding)):
        span = size + 2 * p - k
        if span < 0:
            raise ValueError(
                f"kernel {k} larger than padded input {size + 2 * p} on axis {i}"
            )
        out.append(span // s + 1)
    return tuple(out)


def _pad_input(x: np.ndarray, padding: Shape3) -> np.ndarray:
    """Zero-pad the three spatial axes of an NCDHW tensor."""
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


#: Unroll the kernel's W axis into the GEMM reduction too when the full
#: reduction ``IC * K^3`` is at most this: with few input channels
#: (CosmoFlow's conv1) ``IC * K^2`` alone is too short to feed a GEMM.
_IM2COL_MAX_REDUCTION = 128

class _Plan(NamedTuple):
    """How one convolution shape maps onto the GEMM.

    The kernel's ``kw`` W-taps are applied either while packing
    (``pack_taps`` holds the ``kw`` strided windows and a GEMM row is an
    output row) or after the GEMM (``gemm_taps`` holds them and a GEMM
    row is the used part of an input row); the other tuple is one
    whole-row slice.
    """

    kernel: Shape3
    stride: Shape3
    out_shape: Shape3
    pack_taps: Tuple[slice, ...]
    gemm_taps: Tuple[slice, ...]
    row: int

    def packed_shape(self, n: int, ic: int) -> Tuple[int, ...]:
        kd, kh, _ = self.kernel
        od, oh, _ = self.out_shape
        return (ic, kd, kh, len(self.pack_taps), n, od, oh, self.row)


def _plan(ic: int, kernel: Shape3, stride: Shape3, out_shape: Shape3) -> _Plan:
    kd, kh, kw = kernel
    sw, ow = stride[2], out_shape[2]
    shifts = tuple(slice(zw, zw + sw * (ow - 1) + 1, sw) for zw in range(kw))
    if ic * kd * kh * kw <= _IM2COL_MAX_REDUCTION:
        return _Plan(kernel, stride, out_shape, shifts, (slice(None),), ow)
    row = sw * (ow - 1) + kw
    return _Plan(kernel, stride, out_shape, (slice(0, row),), shifts, row)


def _pack(xp: np.ndarray, plan: _Plan) -> np.ndarray:
    """Pack an already padded input into the GEMM operand
    ``(IC, kd, kh, taps, N, OD, OH, row)``: one slab copy per ``(zd, zh)``
    and pack-tap."""
    kd, kh, _ = plan.kernel
    sd, sh, _ = plan.stride
    od, oh, _ = plan.out_shape
    packed = np.empty(plan.packed_shape(xp.shape[0], xp.shape[1]), dtype=xp.dtype)
    for zd in range(kd):
        for zh in range(kh):
            rows = xp[:, :, zd : zd + sd * od : sd, zh : zh + sh * oh : sh]
            for u, tap in enumerate(plan.pack_taps):
                packed[:, zd, zh, u] = rows[..., tap].transpose(1, 0, 2, 3, 4)
    return packed


def _check_packed(packed: np.ndarray, plan: _Plan, n: int, ic: int) -> None:
    want = plan.packed_shape(n, ic)
    if packed.shape != want:
        raise ValueError(f"packed operand {packed.shape} is not this convolution's (want {want})")


def _weight_matrix(w: np.ndarray, plan: _Plan) -> np.ndarray:
    """Weights as the ``(gemm_taps*OC, IC*kd*kh*pack_taps)`` GEMM operand."""
    oc, ic, kd, kh, _ = w.shape
    kt, ku = len(plan.gemm_taps), len(plan.pack_taps)
    w6 = w.reshape(oc, ic, kd, kh, kt, ku).transpose(4, 0, 1, 2, 3, 5)
    return w6.reshape(kt * oc, ic * kd * kh * ku)


def _shifted_grad(grad_out: np.ndarray, plan: _Plan) -> np.ndarray:
    """``(gemm_taps*OC, N*OD*OH*row)``: per gemm-tap, the gradient placed
    in rows of the packed width at that tap's positions, zero elsewhere."""
    n, oc, od, oh, ow = grad_out.shape
    g = grad_out.transpose(1, 0, 2, 3, 4)
    kt = len(plan.gemm_taps)
    if (kt, plan.row) == (1, ow):  # rows have no margins: the gradient itself
        return np.ascontiguousarray(g).reshape(oc, -1)
    shifted = np.zeros((kt, oc, n, od, oh, plan.row), dtype=grad_out.dtype)
    for zw, tap in enumerate(plan.gemm_taps):
        shifted[zw][..., tap] = g
    return shifted.reshape(kt * oc, -1)


def conv3d_backward_data(
    grad_out: np.ndarray,
    w: np.ndarray,
    input_shape: Shape3,
    stride=1,
    padding=0,
) -> np.ndarray:
    """Gradient of the convolution w.r.t. its input.

    Parameters
    ----------
    grad_out
        ``(N, OC, OD, OH, OW)`` gradient flowing back into the layer.
    w
        The layer's weights ``(OC, IC, KD, KH, KW)``.
    input_shape
        Spatial shape ``(ID, IH, IW)`` of the forward input (needed
        because stride can make it ambiguous).

    Returns
    -------
    ``(N, IC, ID, IH, IW)`` input gradient.
    """
    stride = _triple(stride)
    padding = _triple(padding)
    n, oc, od, oh, ow = grad_out.shape
    if oc != w.shape[0]:
        raise ValueError(f"grad channels {oc} != weight output channels {w.shape[0]}")
    kernel = w.shape[2:]
    expected = conv3d_output_shape(input_shape, kernel, stride, padding)
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {input_shape} "
            f"(expected {expected})"
        )
    ic = w.shape[1]
    kd, kh, _ = kernel
    sd, sh, _ = stride
    plan = _plan(ic, kernel, stride, expected)
    grad_rows = (_weight_matrix(w, plan).T @ _shifted_grad(grad_out, plan)).reshape(
        plan.packed_shape(n, ic)
    )

    padded_shape = tuple(s + 2 * p for s, p in zip(input_shape, padding))
    grad_in = np.zeros((n, ic) + padded_shape, dtype=grad_out.dtype)
    dst = grad_in.transpose(1, 0, 2, 3, 4)
    for zd in range(kd):
        for zh in range(kh):
            rows = dst[:, :, zd : zd + sd * od : sd, zh : zh + sh * oh : sh]
            for u, tap in enumerate(plan.pack_taps):
                rows[..., tap] += grad_rows[:, zd, zh, u]
    if padding != (0, 0, 0):
        crop = tuple(slice(p, p + s) for s, p in zip(input_shape, padding))
        grad_in = np.ascontiguousarray(grad_in[(slice(None), slice(None)) + crop])
    return grad_in


def conv3d_backward_weights(
    x: np.ndarray,
    grad_out: np.ndarray,
    kernel: Shape3,
    stride=1,
    padding=0,
    with_bias: bool = False,
    *,
    packed: np.ndarray | None = None,
):
    """Gradient of the convolution w.r.t. weights (and optionally bias).

    Parameters
    ----------
    x
        Forward input ``(N, IC, ID, IH, IW)``.
    grad_out
        ``(N, OC, OD, OH, OW)`` output gradient.
    kernel
        Kernel spatial shape ``(KD, KH, KW)``.
    packed
        The forward's ``conv3d_pack(x, kernel, stride, padding)``, if the
        caller kept it; ``x`` is repacked otherwise.

    Returns
    -------
    ``grad_w`` of shape ``(OC, IC, KD, KH, KW)``; if ``with_bias``, a
    ``(grad_w, grad_b)`` tuple with ``grad_b`` of shape ``(OC,)``.
    """
    kernel = _triple(kernel)
    stride = _triple(stride)
    padding = _triple(padding)
    n, oc, od, oh, ow = grad_out.shape
    if x.shape[0] != n:
        raise ValueError(f"batch mismatch: input {x.shape[0]} vs grad {n}")
    expected = conv3d_output_shape(x.shape[2:], kernel, stride, padding)
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {x.shape[2:]} "
            f"(expected {expected})"
        )
    ic = x.shape[1]
    kd, kh, kw = kernel
    plan = _plan(ic, kernel, stride, expected)
    if packed is None:
        packed = _pack(_pad_input(x, padding), plan)
    else:
        _check_packed(packed, plan, n, ic)
    kt, ku = len(plan.gemm_taps), len(plan.pack_taps)
    grad_wm = _shifted_grad(grad_out, plan) @ packed.reshape(ic * kd * kh * ku, -1).T
    # Undo _weight_matrix's arrangement, one gemm-tap at a time (a single
    # transposing copy is ~5x slower in NumPy).
    grad_w = np.empty((oc, ic, kd, kh, kw), dtype=grad_wm.dtype)
    taps_last = grad_w.reshape(oc, ic, kd, kh, kt, ku)
    for zw, per_tap in enumerate(grad_wm.reshape(kt, oc, ic, kd, kh, ku)):
        taps_last[:, :, :, :, zw] = per_tap
    if with_bias:
        return grad_w, grad_out.sum(axis=(0, 2, 3, 4))
    return grad_w


def avg_pool3d_backward(
    grad_out: np.ndarray, input_shape: Shape3, kernel, stride=None
) -> np.ndarray:
    """Gradient of average pooling w.r.t. its input, one strided pass per
    kernel offset whatever the stride (assigning where windows cannot
    overlap, accumulating where they can)."""
    kd, kh, kw = _triple(kernel)
    sd, sh, sw = (kd, kh, kw) if stride is None else _triple(stride)
    n, c, od, oh, ow = grad_out.shape
    scaled = grad_out / np.array(kd * kh * kw, dtype=grad_out.dtype)
    grad_in = np.zeros((n, c) + tuple(input_shape), dtype=grad_out.dtype)
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
