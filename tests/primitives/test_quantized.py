"""Seeded property tests for the int8/int4 quantized kernels.

Satellite coverage for the low-precision path: pack→unpack round trips
over ragged group sizes and non-multiple-of-16 channel counts, and
quantized-conv error bounds against the exact fp32 kernels across
random shapes, strides, and padding.
"""

import numpy as np
import pytest

from repro.primitives.conv3d import conv3d_output_shape
from repro.primitives.quantized import (
    DEFAULT_GROUP_SIZE,
    QuantCache,
    QuantizedWeights,
    default_quant_cache,
    dequantize_groupwise,
    pack_int4,
    quantize_groupwise,
    quantized_matmul,
    unpack_int4,
)
from repro.primitives.registry import get_impl
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from tests.primitives.test_conv3d import naive_conv3d_passes


def _rng(seed):
    return np.random.default_rng(seed)


class TestGroupwiseRoundTrip:
    """Dequantize(quantize(x)) is within half a quantization step."""

    # Ragged group sizes, ragged reduction lengths, C % 16 != 0 rows.
    CASES = [
        (5, 37, 32),  # ragged tail group
        (17, 16, 16),  # one exact group, odd rows
        (3, 100, 48),  # group size not dividing cols
        (16, 96, 32),  # exact multiple (block-aligned)
        (1, 1, 32),  # single element
        (7, 5, 64),  # group larger than the whole reduction
    ]

    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("rows,cols,group_size", CASES)
    def test_round_trip_error_bound(self, bits, rows, cols, group_size):
        for seed in range(3):
            mat = _rng([seed, rows, cols]).standard_normal((rows, cols))
            mat = mat.astype(np.float32)
            q, scales = quantize_groupwise(mat, bits=bits, group_size=group_size)
            dq = dequantize_groupwise(q, scales, group_size, cols)
            assert dq.shape == mat.shape
            # Symmetric rounding: error is at most half a step per group.
            n_groups = q.shape[1] // group_size
            grouped_err = np.abs(dq - mat)
            pad = (-cols) % group_size
            padded_err = np.zeros((rows, cols + pad), dtype=np.float32)
            padded_err[:, :cols] = grouped_err
            per_group_max = padded_err.reshape(rows, n_groups, group_size).max(axis=2)
            assert np.all(per_group_max <= scales * 0.5 + 1e-7)

    def test_padded_tail_is_zero(self):
        mat = _rng(0).standard_normal((4, 33)).astype(np.float32)
        q, _ = quantize_groupwise(mat, bits=8, group_size=32)
        assert q.shape[1] == 64
        assert np.all(q[:, 33:] == 0)

    def test_zero_group_scale_is_one_and_exact(self):
        mat = np.zeros((2, 64), dtype=np.float32)
        q, scales = quantize_groupwise(mat, bits=8, group_size=32)
        assert np.all(scales == 1.0)
        assert np.all(dequantize_groupwise(q, scales, 32, 64) == 0.0)

    def test_int8_tighter_than_int4(self):
        mat = _rng(7).standard_normal((8, 128)).astype(np.float32)
        errs = {}
        for bits in (8, 4):
            q, s = quantize_groupwise(mat, bits=bits, group_size=32)
            errs[bits] = np.abs(dequantize_groupwise(q, s, 32, 128) - mat).max()
        assert errs[8] < errs[4]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            quantize_groupwise(np.zeros((2, 8), np.float32), bits=16)
        with pytest.raises(ValueError):
            quantize_groupwise(np.zeros((2, 8), np.float32), group_size=0)
        with pytest.raises(ValueError):
            quantize_groupwise(np.zeros(8, np.float32))


class TestInt4Packing:
    @pytest.mark.parametrize("cols", [1, 2, 15, 16, 33, 64])
    def test_pack_unpack_exact(self, cols):
        for seed in range(5):
            v = _rng([seed, cols]).integers(-8, 8, size=(6, cols)).astype(np.int8)
            assert np.array_equal(unpack_int4(pack_int4(v), cols), v)

    def test_two_values_per_byte(self):
        v = np.zeros((3, 40), dtype=np.int8)
        assert pack_int4(v).shape == (3, 20)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_int4(np.full((1, 4), 8, dtype=np.int8))


class TestQuantizedWeights:
    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("oc,ic", [(5, 3), (16, 16), (17, 33)])
    def test_dense_round_trip_shape_and_bound(self, bits, oc, ic):
        w = _rng([bits, oc, ic]).standard_normal((oc, ic, 3, 3, 3))
        w = w.astype(np.float32)
        qw = QuantizedWeights.from_dense(w, bits=bits)
        dq = qw.dequantize()
        assert dq.shape == w.shape
        assert np.abs(dq - w).max() <= qw.scales.max() * 0.5 + 1e-7

    def test_int4_storage_is_half_of_int8(self):
        w = _rng(1).standard_normal((16, 16, 3, 3, 3)).astype(np.float32)
        q8 = QuantizedWeights.from_dense(w, bits=8)
        q4 = QuantizedWeights.from_dense(w, bits=4)
        assert q4.data.nbytes * 2 == q8.data.nbytes
        assert q8.nbytes < w.nbytes  # packed + scales beat dense fp32


class TestQuantizedMatmul:
    @pytest.mark.parametrize("bits", [8, 4])
    def test_error_bound_vs_fp32(self, bits):
        for seed in range(3):
            rng = _rng([seed, bits])
            m, k, oc = 9, 70, 11
            x = rng.standard_normal((m, k)).astype(np.float32)
            w = rng.standard_normal((oc, k)).astype(np.float32)
            qw = QuantizedWeights.from_dense(w, bits=bits)
            ref = x @ w.T
            out = quantized_matmul(x, qw)
            # Worst-case per-output error: each reduction element is off
            # by at most half a weight step and half an activation step.
            sw = qw.scales.max()
            sx = np.abs(x).max(axis=1, keepdims=True) / 127.0
            bound = k * (
                sx * np.abs(w).max() + sw / 2 * np.abs(x).max() + sw * sx
            )
            assert np.all(np.abs(out - ref) <= bound + 1e-5)

    def test_shape_mismatch_rejected(self):
        qw = QuantizedWeights.from_dense(np.zeros((4, 8), np.float32))
        with pytest.raises(ValueError):
            quantized_matmul(np.zeros((3, 9), np.float32), qw)


class TestQuantizedConvParity:
    """Quantized conv forward vs the exact fp32 kernels, seeded sweep."""

    # (N, C, size, OC, kernel, stride, padding)
    CASES = [
        (1, 3, 8, 5, 3, 1, 0),
        (2, 16, 9, 16, 3, 2, 1),  # block-aligned channels
        (1, 5, 10, 7, 3, 2, 0),  # C % 16 != 0
        (2, 4, 7, 6, 2, 1, 1),
        (1, 17, 6, 9, 3, 1, 0),  # ragged channels > one block
    ]

    @pytest.mark.parametrize("bits,impl", [(8, "int8"), (4, "int4")])
    @pytest.mark.parametrize("case", CASES)
    def test_error_bound_vs_float64(self, bits, impl, case):
        n, c, size, oc, kk, stride, padding = case
        rng = _rng([bits, *case])
        x = rng.standard_normal((n, c, size, size, size)).astype(np.float32)
        w = (rng.standard_normal((oc, c, kk, kk, kk)) * 0.2).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        out_shape = (n, oc) + conv3d_output_shape((size,) * 3, (kk,) * 3, stride, padding)
        ref, _, _ = naive_conv3d_passes(x, w, np.zeros(out_shape), stride, padding)
        ref += b.reshape(1, -1, 1, 1, 1)
        out = get_impl(impl).forward(x, w, b, stride=stride, padding=padding)
        assert out.shape == ref.shape
        qw = QuantizedWeights.from_dense(w, bits=bits)
        k = c * kk**3
        sw = float(qw.scales.max())
        sx = float(np.abs(x).max()) / 127.0
        bound = k * (
            sx * float(np.abs(w).max()) + sw / 2 * float(np.abs(x).max()) + sw * sx
        )
        assert np.abs(out - ref).max() <= bound + 1e-5

    def test_int8_closer_than_int4(self):
        rng = _rng(42)
        x = rng.standard_normal((1, 8, 8, 8, 8)).astype(np.float32)
        w = (rng.standard_normal((8, 8, 3, 3, 3)) * 0.2).astype(np.float32)
        ref = get_impl("gemm").forward(x, w, None)
        e8 = np.abs(get_impl("int8").forward(x, w, None) - ref).max()
        e4 = np.abs(get_impl("int4").forward(x, w, None) - ref).max()
        assert e8 < e4

    def test_backward_delegates_to_gemm_bitwise(self):
        rng = _rng(3)
        x = rng.standard_normal((2, 4, 6, 6, 6)).astype(np.float32)
        w = rng.standard_normal((5, 4, 3, 3, 3)).astype(np.float32)
        go = rng.standard_normal((2, 5, 4, 4, 4)).astype(np.float32)
        ref_dx = get_impl("gemm").backward_data(go, w, x.shape[2:])
        ref_dw = get_impl("gemm").backward_weights(x, go, (3, 3, 3))
        dx = get_impl("int8").backward_data(go, w, x.shape[2:])
        dw = get_impl("int8").backward_weights(x, go, (3, 3, 3))
        assert np.array_equal(dx, ref_dx)
        assert np.array_equal(dw, ref_dw)

    def test_tensor_ops_dispatch_by_name(self):
        rng = _rng(11)
        x = Tensor(rng.standard_normal((1, 3, 6, 6, 6)).astype(np.float32))
        w = Tensor((rng.standard_normal((4, 3, 3, 3, 3)) * 0.2).astype(np.float32))
        out_q = ops.conv3d(x, w, impl="int8")
        out_f = ops.conv3d(x, w, impl="gemm")
        assert out_q.data.shape == out_f.data.shape
        rel = np.abs(out_q.data - out_f.data).max() / (np.abs(out_f.data).max() + 1e-12)
        assert rel < 0.05


class TestRegistryIntegration:
    def test_impls_registered(self):
        from repro.primitives.registry import available_impls

        names = available_impls()
        assert "int8" in names and "int4" in names


class TestQuantCache:
    def test_content_addressed_reuse(self):
        cache = QuantCache(capacity=4)
        w = _rng(0).standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        a = cache.get_or_quantize(w, 8, DEFAULT_GROUP_SIZE)
        b = cache.get_or_quantize(w.copy(), 8, DEFAULT_GROUP_SIZE)
        assert a is b  # same content digest -> same packed buffer
        assert cache.hits == 1 and cache.misses == 1
        c = cache.get_or_quantize(w, 4, DEFAULT_GROUP_SIZE)
        assert c is not a  # bits are part of the key
        assert cache.misses == 2

    def test_capacity_eviction(self):
        cache = QuantCache(capacity=2)
        rng = _rng(5)
        for _ in range(4):
            cache.get_or_quantize(
                rng.standard_normal((2, 2, 2, 2, 2)).astype(np.float32), 8, 32
            )
        assert len(cache) == 2

    def test_default_cache_hit_counter(self):
        cache = default_quant_cache()
        before_hits = cache.hits
        w = _rng(9).standard_normal((3, 3, 2, 2, 2)).astype(np.float32)
        x = _rng(10).standard_normal((1, 3, 4, 4, 4)).astype(np.float32)
        get_impl("int8").forward(x, w, None)
        get_impl("int8").forward(x, w, None)
        assert cache.hits > before_hits
