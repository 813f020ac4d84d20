"""Int8/int4 packed-weight kernels with per-group scales.

The paper's single-node performance (Section IV) comes from cutting the
cost of every multiply-accumulate with AVX512/MKL-DNN kernels.  This
module extends the same arithmetic-intensity argument below fp32:
weights are quantized symmetrically to int8 or int4 with one fp32 scale
per *group* of reduction-axis elements, following the packed sub-byte
``int4mm`` kernel pattern (two int4 values per byte, per-group scales).

Grouping rides the 16-lane channel blocks of the paper's blocked
weight format: the default group size (32) is two 16-lane blocks, so
one scale covers whole vector registers.  Ragged tails — reduction
lengths not a multiple of the group size, channel counts not a multiple
of 16 — are zero-padded: zeros never change a group's max-abs scale and
contribute nothing to the dot product.

The compute kernels are *genuinely* low-precision: activations are
dynamically quantized per output row, the inner dot products run in
int32, and fp32 only reappears in the per-group scale recombination.
Registered as ConvImpls (``"int8"``, ``"int4"``) they sit in the same
registry as the exact kernels — but they are **approximate**, so
nothing selects them implicitly: name them (``ops.conv3d(impl="int8")``
or :func:`repro.primitives.registry.set_default_impl`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.primitives.conv3d import (
    _geometry,
    _pad_input,
    _windows,
    conv3d_backward_data,
    conv3d_backward_weights,
)
from repro.primitives import registry as _registry

__all__ = [
    "DEFAULT_GROUP_SIZE",
    "QuantizedWeights",
    "quantize_groupwise",
    "dequantize_groupwise",
    "pack_int4",
    "unpack_int4",
    "quantized_matmul",
    "conv3d_forward_int8",
    "conv3d_forward_int4",
    "QuantCache",
    "default_quant_cache",
    "clear_quant_cache",
    "register_quantized_impls",
]

#: Default scale-group length along the reduction axis: two 16-lane
#: SIMD blocks, the ``int4mm`` kernel's default granularity.
DEFAULT_GROUP_SIZE = 32

_QMAX = {8: 127, 4: 7}


def _check_bits(bits: int) -> int:
    if bits not in _QMAX:
        raise ValueError(f"bits must be 8 or 4, got {bits}")
    return _QMAX[bits]


# ---------------------------------------------------------------------------
# Group-wise quantize / dequantize
# ---------------------------------------------------------------------------


def _pad_cols(mat: np.ndarray, group_size: int) -> np.ndarray:
    """Zero-pad the reduction axis up to a whole number of groups."""
    rows, cols = mat.shape
    pad = (-cols) % group_size
    if pad == 0:
        return mat
    out = np.zeros((rows, cols + pad), dtype=mat.dtype)
    out[:, :cols] = mat
    return out


def quantize_groupwise(
    mat: np.ndarray, bits: int = 8, group_size: int = DEFAULT_GROUP_SIZE
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-group quantization of a 2D matrix.

    ``mat`` is ``(rows, cols)`` with the reduction axis last; groups of
    ``group_size`` consecutive reduction elements share one fp32 scale
    (max-abs / qmax).  Returns ``(q, scales)`` with ``q`` int8 of shape
    ``(rows, padded_cols)`` (zero-padded to whole groups) and ``scales``
    fp32 of shape ``(rows, n_groups)``.  All-zero groups get scale 1.0
    so dequantization is exact for them.
    """
    qmax = _check_bits(bits)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    mat = np.asarray(mat, dtype=np.float32)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {mat.shape}")
    padded = _pad_cols(mat, group_size)
    rows = padded.shape[0]
    n_groups = padded.shape[1] // group_size
    grouped = padded.reshape(rows, n_groups, group_size)
    maxabs = np.abs(grouped).max(axis=2)
    scales = np.where(maxabs > 0.0, maxabs / qmax, 1.0).astype(np.float32)
    q = np.rint(grouped / scales[:, :, None])
    q = np.clip(q, -qmax, qmax).astype(np.int8)
    return q.reshape(rows, n_groups * group_size), scales


def dequantize_groupwise(
    q: np.ndarray,
    scales: np.ndarray,
    group_size: int = DEFAULT_GROUP_SIZE,
    n_cols: Optional[int] = None,
) -> np.ndarray:
    """Invert :func:`quantize_groupwise` (up to rounding), trimming the
    zero-padded tail back to ``n_cols`` when given."""
    q = np.asarray(q)
    rows, padded = q.shape
    n_groups = padded // group_size
    grouped = q.reshape(rows, n_groups, group_size).astype(np.float32)
    out = (grouped * np.asarray(scales, np.float32)[:, :, None]).reshape(rows, padded)
    if n_cols is not None:
        out = out[:, :n_cols]
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# int4 nibble packing
# ---------------------------------------------------------------------------


def pack_int4(q: np.ndarray) -> np.ndarray:
    """Pack int8 values in [-8, 7] two-per-byte (low nibble = even index).

    Values are stored offset-binary (``q + 8``) so the nibble range is
    [0, 15].  Odd-length rows are padded with an encoded zero.
    """
    q = np.asarray(q, dtype=np.int8)
    if q.min(initial=0) < -8 or q.max(initial=0) > 7:
        raise ValueError("int4 pack requires values in [-8, 7]")
    flat = (q.astype(np.int16) + 8).astype(np.uint8).reshape(q.shape[0], -1)
    if flat.shape[1] % 2:
        flat = np.concatenate(
            [flat, np.full((flat.shape[0], 1), 8, dtype=np.uint8)], axis=1
        )
    lo = flat[:, 0::2]
    hi = flat[:, 1::2]
    return (lo | (hi << 4)).astype(np.uint8)


def unpack_int4(packed: np.ndarray, n_cols: int) -> np.ndarray:
    """Invert :func:`pack_int4` back to int8 values in [-8, 7]."""
    packed = np.asarray(packed, dtype=np.uint8)
    lo = (packed & 0x0F).astype(np.int16) - 8
    hi = (packed >> 4).astype(np.int16) - 8
    out = np.empty((packed.shape[0], packed.shape[1] * 2), dtype=np.int8)
    out[:, 0::2] = lo
    out[:, 1::2] = hi
    return out[:, :n_cols]


# ---------------------------------------------------------------------------
# Packed weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizedWeights:
    """A conv/GEMM weight tensor quantized group-wise to int8 or int4.

    ``data`` is the packed buffer — int8 values for ``bits=8``, two
    int4 nibbles per byte for ``bits=4``.  ``scales`` is fp32 of shape
    ``(out_channels, n_groups)``.  ``shape`` is the logical dense shape
    (``(OC, IC, KD, KH, KW)`` for conv, ``(rows, cols)`` for GEMM);
    ``padded_cols`` the zero-padded reduction length actually stored.
    """

    data: np.ndarray
    scales: np.ndarray
    shape: Tuple[int, ...]
    bits: int
    group_size: int
    padded_cols: int

    @classmethod
    def from_dense(
        cls,
        w: np.ndarray,
        bits: int = 8,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> "QuantizedWeights":
        w = np.asarray(w, dtype=np.float32)
        if w.ndim < 2:
            raise ValueError("weights must have at least 2 dimensions")
        mat = w.reshape(w.shape[0], -1)
        q, scales = quantize_groupwise(mat, bits=bits, group_size=group_size)
        padded_cols = q.shape[1]
        return cls(
            data=pack_int4(q) if bits == 4 else q,
            scales=scales,
            shape=tuple(w.shape),
            bits=bits,
            group_size=group_size,
            padded_cols=padded_cols,
        )

    @property
    def nbytes(self) -> int:
        """Packed storage footprint (weights + scales)."""
        return int(self.data.nbytes + self.scales.nbytes)

    def unpacked(self) -> np.ndarray:
        """The int8 code matrix ``(rows, padded_cols)``."""
        if self.bits == 4:
            return unpack_int4(self.data, self.padded_cols)
        return self.data

    def dequantize(self) -> np.ndarray:
        """Dense fp32 weights in the original logical shape."""
        n_cols = int(np.prod(self.shape[1:]))
        mat = dequantize_groupwise(
            self.unpacked(), self.scales, self.group_size, n_cols
        )
        return mat.reshape(self.shape)


# ---------------------------------------------------------------------------
# Quantized GEMM
# ---------------------------------------------------------------------------

#: Row-slab size for the quantized GEMM: bounds the int32 partial-sum
#: tensor ``(slab, OC, n_groups)`` the grouped contraction materializes.
_MATMUL_SLAB = 16384


def quantized_matmul(x: np.ndarray, qw: QuantizedWeights) -> np.ndarray:
    """``x @ w.T`` with int8/int4 weights and int8 dynamic activations.

    ``x`` is fp32 ``(M, K)``; activations are quantized symmetrically
    per row (one dynamic scale each), the inner products accumulate in
    int32 per scale group, and the per-group weight scales recombine the
    partial sums in fp32.  Returns fp32 ``(M, OC)``.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected 2D activations, got shape {x.shape}")
    k = int(np.prod(qw.shape[1:]))
    if x.shape[1] != k:
        raise ValueError(f"activation K={x.shape[1]} but weights expect K={k}")
    gs = qw.group_size
    wq = qw.unpacked().astype(np.int32)
    oc = wq.shape[0]
    n_groups = qw.padded_cols // gs
    wq = wq.reshape(oc, n_groups, gs)
    w_scales = np.asarray(qw.scales, np.float32)  # (OC, G)

    out = np.empty((x.shape[0], oc), dtype=np.float32)
    for lo in range(0, x.shape[0], _MATMUL_SLAB):
        hi = min(lo + _MATMUL_SLAB, x.shape[0])
        xs = _pad_cols(x[lo:hi], gs)
        maxabs = np.abs(xs).max(axis=1)
        x_scales = np.where(maxabs > 0.0, maxabs / 127.0, 1.0).astype(np.float32)
        xq = np.rint(xs / x_scales[:, None])
        xq = np.clip(xq, -127, 127).astype(np.int32).reshape(hi - lo, n_groups, gs)
        # int32 partial dot per (row, out-channel, group), then the
        # per-group weight scales and per-row activation scales fold
        # the integer sums back to fp32.
        partial = np.einsum("mgs,ogs->mog", xq, wq, dtype=np.int64)
        out[lo:hi] = (
            (partial.astype(np.float32) * w_scales[None, :, :]).sum(axis=2)
            * x_scales[:, None]
        )
    return out


# ---------------------------------------------------------------------------
# Quantized convolution forward
# ---------------------------------------------------------------------------


def _im2col_rows(x: np.ndarray, kernel, stride, padding):
    """Flattened im2col columns ``(N*OD*OH*OW, C*KD*KH*KW)``: one gather
    through the gemm kernels' window view, every W-tap on the packing side."""
    # True: im2col whatever C*K^3 (a positional flag: the lookup is cached on *args).
    geo = _geometry(x.shape[0], x.shape[1], x.shape[2:], kernel, stride, padding, True)
    windows = _windows(_pad_input(x, geo.padding), geo.plan)  # (C, K^3, N, OD, OH, OW)
    n, od, oh, ow = windows.shape[4:]
    rows = windows.transpose(4, 5, 6, 7, 0, 1, 2, 3).reshape(n * od * oh * ow, -1)
    return rows, (n, od, oh, ow)


def _conv3d_forward_quantized(
    x: np.ndarray,
    qw: QuantizedWeights,
    bias: Optional[np.ndarray] = None,
    stride=1,
    padding=0,
) -> np.ndarray:
    if len(qw.shape) != 5:
        raise ValueError(f"expected 5D conv weights, got shape {qw.shape}")
    x = np.asarray(x, dtype=np.float32)
    rows, (n, od, oh, ow) = _im2col_rows(x, qw.shape[2:], stride, padding)
    flat = quantized_matmul(rows, qw)  # (N*OD*OH*OW, OC)
    out = flat.reshape(n, od, oh, ow, qw.shape[0]).transpose(0, 4, 1, 2, 3)
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += np.asarray(bias, np.float32).reshape(1, -1, 1, 1, 1)
    return out


# ---------------------------------------------------------------------------
# Content-addressed quantization cache
# ---------------------------------------------------------------------------


def _digest(arr: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class QuantCache:
    """Content-addressed cache of :class:`QuantizedWeights`.

    The key digests the dense weight bytes, so a weight is re-quantized
    only when the optimizer actually changes it — inference reuses one
    packed buffer across every step.  Hits/misses are counted on the
    metrics registry attached via
    :func:`repro.primitives.registry.set_metrics`.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, QuantizedWeights] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _count(self, name: str) -> None:
        from repro.primitives import registry

        m = registry.get_metrics()
        if m is not None:
            m.counter(f"primitives.quantized.cache.{name}").add(1)

    def get_or_quantize(
        self, w: np.ndarray, bits: int, group_size: int
    ) -> QuantizedWeights:
        key = (_digest(w), bits, group_size)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("hits")
                return cached
        qw = QuantizedWeights.from_dense(w, bits=bits, group_size=group_size)
        with self._lock:
            self._entries[key] = qw
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self.misses += 1
        self._count("misses")
        return qw

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_default_cache = QuantCache()


def default_quant_cache() -> QuantCache:
    """The process-wide quantized-weight cache."""
    return _default_cache


def clear_quant_cache() -> None:
    _default_cache.clear()


# ---------------------------------------------------------------------------
# ConvImpl registration
# ---------------------------------------------------------------------------


def conv3d_forward_int8(x, w, bias=None, stride=1, padding=0):
    """Registry-convention forward with cached int8 weight quantization."""
    qw = _default_cache.get_or_quantize(w, 8, DEFAULT_GROUP_SIZE)
    return _conv3d_forward_quantized(x, qw, bias, stride, padding)


def conv3d_forward_int4(x, w, bias=None, stride=1, padding=0):
    """Registry-convention forward with cached int4 weight quantization."""
    qw = _default_cache.get_or_quantize(w, 4, DEFAULT_GROUP_SIZE)
    return _conv3d_forward_quantized(x, qw, bias, stride, padding)


def _make_backward_data(impl_name: str):
    def backward_data(grad_out, w, input_shape, stride=1, padding=0):
        # Quantized kernels are forward/inference formulations; training
        # backward passes delegate to the exact gemm kernels (counted,
        # so attribution stays honest).
        _registry.count_fallback(impl_name, "backward_data")
        return conv3d_backward_data(grad_out, w, input_shape, stride, padding)

    return backward_data


def _make_backward_weights(impl_name: str):
    def backward_weights(x, grad_out, kernel, stride=1, padding=0, with_bias=False):
        _registry.count_fallback(impl_name, "backward_weights")
        return conv3d_backward_weights(x, grad_out, kernel, stride, padding, with_bias)

    return backward_weights


def register_quantized_impls() -> None:
    """Register the ``"int8"`` / ``"int4"`` ConvImpls (idempotent)."""
    _registry.register_impl(
        _registry.ConvImpl(
            name="int8",
            forward=conv3d_forward_int8,
            backward_data=_make_backward_data("int8"),
            backward_weights=_make_backward_weights("int8"),
        )
    )
    _registry.register_impl(
        _registry.ConvImpl(
            name="int4",
            forward=conv3d_forward_int4,
            backward_data=_make_backward_data("int4"),
            backward_weights=_make_backward_weights("int4"),
        )
    )


register_quantized_impls()
