"""Production 3D convolution kernels (forward / backward).

Layout is ``NCDHW`` for activations and ``(OC, IC, KD, KH, KW)`` for
weights, matching the framework layer above.  Convolution here is
*cross-correlation* (no kernel flip), as in every deep-learning
framework.

Implementation strategy
-----------------------
Each pass is **one GEMM**, which is how the paper keeps its microkernel
fed (Section IV).  Only the ``(kd, kh)`` kernel axes are unrolled into
the reduction dimension; along W the input keeps whole contiguous rows:

* *pack*: ``rows[(ic, zd, zh), (n, od, oh, :)] = x[n, ic, zd + sd*od,
  zh + sh*oh, :]`` — one gather: the right-hand side is a strided
  window view of the padded input (:func:`_windows`, overlapping, never
  materialised) and the operand is a single copy of it, whole W-rows
  innermost.
* *forward*: ``(kw*OC) x (IC*kd*kh) @ rows`` holds every W-tap's
  contribution at every row position; the output is the sum of the
  ``kw`` results read at offset ``zw`` (bias folded into the first).
* *backward*: **one call per convolution** (:func:`conv3d_backward`).
  The ``kw`` W-shifted, zero-margined copies of the gradient are built
  once and feed both GEMMs: the transposed weight matrix times them is
  the gradient of ``rows``, which ``kd*kh`` row-slab adds scatter into
  the input gradient; ``rows`` — the forward's own when handed back
  (:func:`conv3d_pack`) — times their transpose is the weight
  gradient's transpose.  :func:`conv3d_backward_data` and
  :func:`conv3d_backward_weights` are that same code asked for one
  result; there is no second backward.  Asked for ``groups`` (separate
  callers' samples joined into one batch: a stepped step's ranks), it
  keeps one weight and bias gradient per group, each from the group's
  column block of both operands.

Where ``IC * K^3`` is small (CosmoFlow's one-channel conv1) the W axis
is unrolled into the reduction too — im2col: the shifts happen while
packing, none after the GEMM.  :class:`_Plan` says on which side of the
GEMM the W-taps go; everything else is one code path, stride and
padding included (strided windows and taps; pad once, crop once).
Results differ from a direct convolution only by fp32 summation order.

Loops that remain
-----------------
Packing moves data and does no arithmetic, so it has no order to keep
and is one copy.  The Python loops left in this module each *add*, and
the order of their adds is the bits of the result: the forward's
``kw`` tap sums (:func:`_gemm_sum_taps`) and the backward's ``kd*kh``
row-slab scatter-adds into the input gradient (overlapping windows
accumulate).  One ``kw``-long copy loop stays as well: the
zero-margined placements of :func:`_shifted_grad` (each tap writes a
different slice of a different plane).

Two cores per call
------------------
A call with enough GEMM work runs part of it on the helper thread of
:mod:`repro.utils.cores` beside the caller, where that module's rule
(:func:`~repro.utils.cores.helper_pays`) finds it pays and a core is
spare: the backward asked for both gradients hands the helper the weight
gradient (repack, GEMM, un-arrange) and keeps the input gradient and the
bias; the untaped forward (``packed`` not given: inference, validation,
serving) puts its (sample, depth-slab) units in one queue that both
threads take from, so a helper slowed by a busy second core does fewer
of them.  The slabs are the ones one thread would pack, so every GEMM is
the same call on the same operands as on one thread, and every output
element has one writer: the bits do not move.  The helper is joined
before the call returns or raises, so no thread outlives a kernel call;
it runs kernel code only.

Derived once
------------
The network is a static graph: everything a call derives from shapes
and layer constants alone — normalised kernel / stride / padding, the
output shape, the :class:`_Plan`, packed and padded shapes, crop slices,
its GEMMs' multiply-adds per output channel — is one immutable
:class:`_Geometry` record, built once per distinct ``(n, ic, spatial,
kernel, stride, padding)`` and looked up afterwards, the way MKL-DNN
creates a layer's primitive once and then only executes it.  The cache
holds tuples and slices, never an array (outputs and packed operands
escape to the caller's layer context, so each call allocates its own),
which keeps it thread-safe and costs no memory worth counting.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.utils.cores import beside_helper, helper_pays

__all__ = [
    "conv3d_output_shape",
    "conv3d_pack",
    "conv3d_pack_size",
    "conv3d_forward",
    "conv3d_backward",
    "conv3d_backward_data",
    "conv3d_backward_weights",
]

Shape3 = Tuple[int, int, int]


def _triple(v) -> Shape3:
    """Normalize an int or 3-sequence to a 3-tuple of ints."""
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or length-3 value, got {v!r}")
    return t


#: Distinct shape keys kept per cached builder (a network has a handful).
_SHAPE_CACHE_SIZE = 1024


def _shape_cached(build):
    """Memoise ``build``, a function of shapes and layer constants only.

    Hashable arguments are looked up as given; a list or array is made a
    tuple first, then looked up.  ``functools.lru_cache`` underneath:
    thread-safe, and an exception is never cached, so an invalid shape
    raises the same error on every call.
    """
    cached = functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)(build)

    @functools.wraps(build)
    def lookup(*args):
        try:
            return cached(*args)
        except TypeError:  # an unhashable spelling of a shape
            return cached(*(tuple(a) if isinstance(a, (list, np.ndarray)) else a for a in args))

    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


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

#: Most elements packed at a time by one thread of a forward that keeps
#: nothing (one sample, a slab of output depth) or handed out by
#: :func:`conv3d_pack`.
_PACK_MAX_ELEMS = 16_000_000


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
    """The plan of one shape."""
    kd, kh, kw = kernel
    sw, ow = stride[2], out_shape[2]
    shifts = tuple(slice(zw, zw + sw * (ow - 1) + 1, sw) for zw in range(kw))
    if ic * kd * kh * kw <= _IM2COL_MAX_REDUCTION:
        return _Plan(kernel, stride, out_shape, shifts, (slice(None),), ow)
    row = sw * (ow - 1) + kw
    return _Plan(kernel, stride, out_shape, (slice(0, row),), shifts, row)


class _Geometry(NamedTuple):
    """What one convolution call derives from shapes and layer constants
    alone (see *Derived once* in the module docstring)."""

    plan: _Plan
    padding: Shape3
    input_shape: Shape3
    #: Shape of the packed operand of the whole ``(n, ic)`` input.
    packed_shape: Tuple[int, ...]
    #: The GEMMs' reduction length ``IC * kd * kh * pack_taps``.
    reduction: int
    #: ``(n, ic)`` + the zero-padded spatial shape, and the index that
    #: crops it back (``None`` without padding).
    padded_shape: Tuple[int, ...]
    crop: Optional[Tuple[slice, ...]]
    #: Packed elements per sample and plane of output depth: what the
    #: untaped forward divides ``_PACK_MAX_ELEMS`` by to bound its slabs.
    plane_elems: int
    #: Multiply-adds per output channel of one of the call's GEMMs: what
    #: decides whether it runs part of its work on a helper thread
    #: (:func:`~repro.utils.cores.helper_pays`).
    gemm_macs_per_oc: int


def _window_steps(plan: _Plan) -> Shape3:
    """Element steps of :func:`_windows`' view between output planes,
    output rows and the positions of one packed row."""
    return plan.stride[0], plan.stride[1], plan.pack_taps[0].step or 1


@_shape_cached
def _geometry(n: int, ic: int, input_shape, kernel, stride, padding) -> _Geometry:
    kernel, stride, padding = _triple(kernel), _triple(stride), _triple(padding)
    input_shape = tuple(int(s) for s in input_shape)
    out_shape = conv3d_output_shape(input_shape, kernel, stride, padding)
    plan = _plan(ic, kernel, stride, out_shape)
    reduction = ic * kernel[0] * kernel[1] * len(plan.pack_taps)
    padded = tuple(s + 2 * p for s, p in zip(input_shape, padding))
    # _windows addresses the padded input through raw strides: the furthest
    # element it can reach on each axis must lie inside the array.
    taps = (kernel[0], kernel[1], len(plan.pack_taps))
    extent = out_shape[:2] + (plan.row,)
    reach = tuple(
        (k - 1) + step * (size - 1) for k, step, size in zip(taps, _window_steps(plan), extent)
    )
    if any(r >= size for r, size in zip(reach, padded)):
        raise ValueError(
            f"packing windows reach index {reach} of a padded input of shape {padded}"
        )
    crop = None
    if padding != (0, 0, 0):
        crop = (slice(None),) * 2 + tuple(slice(p, p + s) for s, p in zip(input_shape, padding))
    plane_elems = reduction * out_shape[1] * plan.row
    return _Geometry(
        plan, padding, input_shape,
        packed_shape=plan.packed_shape(n, ic),
        reduction=reduction,
        padded_shape=(n, ic) + padded,
        crop=crop,
        plane_elems=plane_elems,
        # (gemm_taps x reduction) @ (reduction x N*OD*OH*row), per channel.
        gemm_macs_per_oc=len(plan.gemm_taps) * plane_elems * n * out_shape[0],
    )


def _windows(xp: np.ndarray, plan: _Plan) -> np.ndarray:
    """Read-only view ``(IC, kd, kh, taps, N, OD, OH, row)`` of an already
    padded input: element ``[ic, zd, zh, u, n, od, oh, j]`` is ``xp[n, ic,
    zd + sd*od, zh + sh*oh, u + step*j]``.  Strides are ``xp``'s own, so a
    slice of a larger array works; :func:`_geometry` has checked that the
    view stays inside the array."""
    bn, bc, bd, bh, bw = xp.strides
    sd, sh, step = _window_steps(plan)
    return as_strided(
        xp,
        plan.packed_shape(xp.shape[0], xp.shape[1]),
        (bc, bd, bh, bw, bn, bd * sd, bh * sh, bw * step),
        writeable=False,
    )


def _pack(xp: np.ndarray, plan: _Plan) -> np.ndarray:
    """Pack an already padded input into the GEMM operand
    ``(IC, kd, kh, taps, N, OD, OH, row)``: one gather through
    :func:`_windows` (no arithmetic, so no order to keep)."""
    return _windows(xp, plan).copy()


def conv3d_pack(x: np.ndarray, kernel, stride=1, padding=0) -> np.ndarray | None:
    """Pack ``x`` into the operand the forward and backward-weights GEMMs
    share: pass it to both as ``packed=`` and a training step packs once
    (either packs for itself without it).  ``None`` when the operand is too
    large to hold from forward to backward: paper-scale layers pack to
    hundreds of MB per sample.
    """
    geo = _geometry(x.shape[0], x.shape[1], x.shape[2:], kernel, stride, padding)
    if math.prod(geo.packed_shape) > _PACK_MAX_ELEMS:
        return None
    return _pack(_pad_input(x, geo.padding), geo.plan)


def conv3d_pack_size(x_shape, kernel, stride=1, padding=0) -> int:
    """Elements of the operand :func:`conv3d_pack` builds for an input of
    shape ``x_shape`` ``(N, IC, ID, IH, IW)``, whether or not it would hand
    it out."""
    n, ic, *spatial = x_shape
    return math.prod(_geometry(n, ic, tuple(spatial), kernel, stride, padding).packed_shape)


def _check_packed(packed: np.ndarray, geo: _Geometry) -> None:
    if packed.shape != geo.packed_shape:
        raise ValueError(
            f"packed operand {packed.shape} is not this convolution's (want {geo.packed_shape})"
        )


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


def _gemm_sum_taps(a, packed, bias, out, plan: _Plan) -> None:
    """``out (N, OC, OD, OH, OW) = bias + sum over gemm-taps`` of the one
    GEMM ``a @ packed`` read at each tap's positions."""
    t = (a @ packed.reshape(a.shape[1], -1)).reshape(
        (len(plan.gemm_taps), out.shape[1]) + packed.shape[4:]
    )
    dst = out.transpose(1, 0, 2, 3, 4)
    # A sum, so a loop: the order of these adds is the output's bits.
    first, *rest = plan.gemm_taps
    if bias is None:
        dst[...] = t[0][..., first]
    else:
        np.add(t[0][..., first], bias.reshape(-1, 1, 1, 1, 1), out=dst)
    for zw, tap in enumerate(rest, 1):
        dst += t[zw][..., tap]


def conv3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding=0,
    *,
    packed: np.ndarray | None = None,
    groups=None,
) -> np.ndarray:
    """Forward 3D convolution.

    Parameters
    ----------
    x
        Input activations ``(N, IC, ID, IH, IW)``.
    w
        Weights ``(OC, IC, KD, KH, KW)``.
    bias
        Optional per-output-channel bias ``(OC,)``.
    stride, padding
        Int or 3-tuple, per spatial axis.
    packed
        ``conv3d_pack(x, kernel, stride, padding)`` when the caller keeps
        it for :func:`conv3d_backward`.  Without it the input is
        packed here one sample (and bounded depth slab) at a time, so a
        batched inference call never holds batch-sized buffers.
    groups
        As in :func:`conv3d_backward`.  A sample's output never depends on
        another's, so the forward ignores it; it is part of the calling
        convention so that the metrics wrapper can count the weights once
        per group, as that many calls would read them.

    Returns
    -------
    ``(N, OC, OD, OH, OW)`` output activations, same dtype as ``x``.
    """
    if x.ndim != 5:
        raise ValueError(f"expected NCDHW input, got shape {x.shape}")
    if w.ndim != 5:
        raise ValueError(f"expected (OC, IC, KD, KH, KW) weights, got shape {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input channels {x.shape[1]} != weight channels {w.shape[1]}")
    n, ic = x.shape[:2]
    geo = _geometry(n, ic, x.shape[2:], w.shape[2:], stride, padding)
    plan = geo.plan
    a = _weight_matrix(w, plan)
    out = np.empty((n, w.shape[0]) + plan.out_shape, dtype=np.result_type(x.dtype, w.dtype))
    if packed is not None:
        _check_packed(packed, geo)
        _gemm_sum_taps(a, packed, bias, out, plan)
        return out.astype(x.dtype, copy=False)

    xp = _pad_input(x, geo.padding)
    od = plan.out_shape[0]
    sd, kd = plan.stride[0], plan.kernel[0]
    slab = max(1, min(od, _PACK_MAX_ELEMS // geo.plane_elems))
    units = collections.deque(
        (b, d0, min(d0 + slab, od)) for b in range(n) for d0 in range(0, od, slab)
    )

    def run():
        # A deque's pops are thread-safe: each unit, and so each slice of
        # ``out``, goes to exactly one thread.
        while True:
            try:
                b, d0, d1 = units.popleft()
            except IndexError:
                return
            part = plan._replace(out_shape=(d1 - d0,) + plan.out_shape[1:])
            rows = _pack(xp[b : b + 1, :, sd * d0 : sd * (d1 - 1) + kd], part)
            _gemm_sum_taps(a, rows, bias, out[b : b + 1, :, d0:d1], part)

    if len(units) > 1 and helper_pays(w.shape[0] * geo.gemm_macs_per_oc // 2):
        beside_helper(run, run)
    else:
        run()
    return out.astype(x.dtype, copy=False)


def _backward(geo: _Geometry, grad_out, *, w=None, x=None, packed=None, with_bias=False,
              groups=None):
    """The one gemm backward: ``(grad_x, grad_w, grad_b)`` of the
    convolution ``geo`` describes — the input gradient when ``w`` is
    given, the weight gradient when ``x`` is (on ``packed`` if that is
    too), the bias gradient ``with_bias`` — from one shifted gradient.
    With ``groups`` the weight and bias gradients are one per group (see
    :func:`conv3d_backward`), stacked along a leading axis."""
    plan = geo.plan
    if grad_out.shape[2:] != plan.out_shape:
        raise ValueError(
            f"grad spatial shape {grad_out.shape[2:]} inconsistent with input "
            f"{geo.input_shape} (expected {plan.out_shape})"
        )
    if packed is not None:
        _check_packed(packed, geo)
    spans = ((0, grad_out.shape[0]),) if groups is None else groups
    shifted = _shifted_grad(grad_out, plan)
    (kd, kh, kw), (sd, sh, _), (od, oh, _) = plan.kernel, plan.stride, plan.out_shape

    def input_grad():
        grad_rows = (_weight_matrix(w, plan).T @ shifted).reshape(geo.packed_shape)
        grad_x = np.zeros(geo.padded_shape, dtype=grad_out.dtype)
        dst = grad_x.transpose(1, 0, 2, 3, 4)
        # Windows overlap, so this scatter accumulates — unlike _pack's
        # gather it cannot be one copy, and the order of its adds is the
        # gradient's bits.
        for zd in range(kd):
            for zh in range(kh):
                rows = dst[:, :, zd : zd + sd * od : sd, zh : zh + sh * oh : sh]
                for u, tap in enumerate(plan.pack_taps):
                    rows[..., tap] += grad_rows[:, zd, zh, u]
        if geo.crop is not None:
            grad_x = np.ascontiguousarray(grad_x[geo.crop])
        return grad_x

    def weight_grad():
        rows = _pack(_pad_input(x, geo.padding), plan) if packed is None else packed
        rows = rows.reshape(geo.reduction, -1)
        # A sample's columns are one block of both operands: a group's block
        # is the operands its own call would build.
        cols = shifted.shape[1] // grad_out.shape[0]
        oc, ic = grad_out.shape[1], geo.packed_shape[0]
        kt, ku = len(plan.gemm_taps), len(plan.pack_taps)
        dtype = np.promote_types(rows.dtype, shifted.dtype)
        grad_w = np.empty((len(spans), oc, ic, kd, kh, kw), dtype=dtype)
        for i, (a, b) in enumerate(spans):
            # The transposed product, with the taps (the operand rows, ``K``)
            # as the GEMM's long output axis: ``rows @ shifted.T`` is
            # ``(shifted @ rows.T).T`` byte for byte on the BLAS this is
            # measured on (a test pins it at every preset's shapes) and
            # faster where ``K * OC`` is small, conv1's ``27 x 16`` most of
            # all.
            grad_wt = rows[:, a * cols : b * cols] @ shifted[:, a * cols : b * cols].T
            # Undo _weight_matrix's arrangement: one transposing copy.
            grad_w[i].reshape(oc, ic, kd, kh, kt, ku)[...] = grad_wt.reshape(
                ic, kd, kh, ku, kt, oc
            ).transpose(5, 0, 1, 2, 4, 3)
        return grad_w

    def bias_grad():
        if not with_bias:
            return None
        grad_b = np.empty((len(spans), grad_out.shape[1]), dtype=grad_out.dtype)
        for i, (a, b) in enumerate(spans):
            grad_b[i] = grad_out[a:b].sum(axis=(0, 2, 3, 4))
        return grad_b

    if w is not None and x is not None and helper_pays(grad_out.shape[1] * geo.gemm_macs_per_oc):
        (grad_x, grad_b), grad_w = beside_helper(weight_grad, lambda: (input_grad(), bias_grad()))
    else:
        grad_x = input_grad() if w is not None else None
        grad_w = weight_grad() if x is not None else None
        grad_b = bias_grad()
    if groups is None:
        grad_w = None if grad_w is None else grad_w[0]
        grad_b = None if grad_b is None else grad_b[0]
    return grad_x, grad_w, grad_b


def conv3d_backward(
    x: np.ndarray,
    grad_out: np.ndarray,
    w: np.ndarray,
    stride=1,
    padding=0,
    *,
    with_bias: bool = False,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
    packed: np.ndarray | None = None,
    groups=None,
):
    """Every gradient of one convolution, from one shifted gradient.

    Parameters
    ----------
    x
        Forward input ``(N, IC, ID, IH, IW)``.
    grad_out
        ``(N, OC, OD, OH, OW)`` gradient flowing back into the layer.
    w
        The layer's weights ``(OC, IC, KD, KH, KW)``.
    with_bias
        Also return the bias gradient (with the weight gradient).
    need_input_grad, need_weight_grad
        Which GEMMs to run; a gradient not asked for is ``None``.
    packed
        The forward's ``conv3d_pack(x, kernel, stride, padding)``, if the
        caller kept it; ``x`` is repacked otherwise.
    groups
        ``((start, stop), ...)``: contiguous runs of samples that tile the
        batch in order, each a separate caller's (the simulated ranks of a
        stepped step).  The input gradient is still one GEMM over every
        sample; each group's weight and bias gradients are computed from
        its own columns of both operands and its own samples of
        ``grad_out`` — what a call on the group alone computes, bit for
        bit (``tests/core/test_chain.py`` pins the GEMM property at every
        preset's shapes).

    Returns
    -------
    ``(grad_x, grad_w, grad_b)`` shaped like ``x``, ``w`` and ``(OC,)``;
    with ``groups``, ``grad_w`` and ``grad_b`` gain a leading group axis.
    """
    n, ic = x.shape[:2]
    if ic != w.shape[1]:
        raise ValueError(f"input channels {ic} != weight channels {w.shape[1]}")
    if grad_out.shape[1] != w.shape[0]:
        raise ValueError(
            f"grad channels {grad_out.shape[1]} != weight output channels {w.shape[0]}"
        )
    if grad_out.shape[0] != n:
        raise ValueError(f"batch mismatch: input {n} vs grad {grad_out.shape[0]}")
    geo = _geometry(n, ic, x.shape[2:], w.shape[2:], stride, padding)
    return _backward(
        geo,
        grad_out,
        w=w if need_input_grad else None,
        x=x if need_weight_grad else None,
        packed=packed,
        with_bias=with_bias and need_weight_grad,
        groups=groups,
    )


def conv3d_backward_data(
    grad_out: np.ndarray, w: np.ndarray, input_shape: Shape3, stride=1, padding=0
) -> np.ndarray:
    """The ``(N, IC, ID, IH, IW)`` input gradient alone, from ``grad_out``
    ``(N, OC, OD, OH, OW)``, the weights and the forward input's spatial
    shape (needed because stride can make it ambiguous)."""
    n, oc = grad_out.shape[:2]
    if oc != w.shape[0]:
        raise ValueError(f"grad channels {oc} != weight output channels {w.shape[0]}")
    geo = _geometry(n, w.shape[1], input_shape, w.shape[2:], stride, padding)
    return _backward(geo, grad_out, w=w)[0]


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
    """The ``(OC, IC, KD, KH, KW)`` weight gradient alone — ``(grad_w,
    grad_b)`` if ``with_bias`` — from the forward input, ``grad_out`` and
    the kernel's spatial shape; ``packed`` as in :func:`conv3d_backward`."""
    n, ic = x.shape[:2]
    if n != grad_out.shape[0]:
        raise ValueError(f"batch mismatch: input {n} vs grad {grad_out.shape[0]}")
    geo = _geometry(n, ic, x.shape[2:], kernel, stride, padding)
    _, grad_w, grad_b = _backward(geo, grad_out, x=x, packed=packed, with_bias=with_bias)
    return (grad_w, grad_b) if with_bias else grad_w
