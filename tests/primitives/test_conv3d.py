"""Tests for the GEMM-path 3D convolution kernels.

Correctness anchors:
* forward vs an independent scipy.ndimage/scipy.signal reference,
* backward-data and backward-weights vs numerical finite differences,
* shape arithmetic edge cases.
"""

import numpy as np
import pytest
from scipy.signal import correlate

from repro.core.topology import scaled_32, tiny_16
from repro.primitives.conv3d import (
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_forward,
    conv3d_output_shape,
    conv3d_pack,
)
from tests.primitives.algorithm1_reference import algorithm1_forward


def reference_conv3d(x, w, bias=None, stride=1, padding=0):
    """Independent reference: per-(n, oc, ic) scipy cross-correlation."""
    if np.isscalar(stride):
        stride = (stride,) * 3
    if np.isscalar(padding):
        padding = (padding,) * 3
    n, ic = x.shape[:2]
    oc = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    outs = []
    for b in range(n):
        per_oc = []
        for o in range(oc):
            acc = None
            for i in range(ic):
                r = correlate(xp[b, i], w[o, i], mode="valid")
                acc = r if acc is None else acc + r
            per_oc.append(acc[:: stride[0], :: stride[1], :: stride[2]])
        outs.append(np.stack(per_oc))
    out = np.stack(outs)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1, 1)
    return out


class TestOutputShape:
    @pytest.mark.parametrize(
        "inp,k,s,p,expect",
        [
            ((8, 8, 8), 3, 1, 0, (6, 6, 6)),
            ((128, 128, 128), 3, 1, 0, (126, 126, 126)),
            ((63, 63, 63), 4, 1, 0, (60, 60, 60)),
            ((8, 8, 8), 2, 2, 0, (4, 4, 4)),
            ((9, 9, 9), 2, 2, 0, (4, 4, 4)),  # floor semantics
            ((27, 27, 27), 2, 2, 0, (13, 13, 13)),
            ((6, 6, 6), 3, 1, 1, (6, 6, 6)),  # "same"-style pad
            ((5, 7, 9), (3, 3, 3), (1, 2, 3), 0, (3, 3, 3)),
        ],
    )
    def test_values(self, inp, k, s, p, expect):
        assert conv3d_output_shape(inp, k, s, p) == expect

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError):
            conv3d_output_shape((2, 2, 2), 3, 1, 0)


class TestForward:
    @pytest.mark.parametrize(
        "n,ic,oc,size,k,stride,padding",
        [
            (1, 1, 1, 5, 3, 1, 0),
            (2, 3, 4, 6, 3, 1, 0),
            (1, 2, 2, 7, 4, 1, 0),
            (1, 2, 3, 8, 3, 2, 0),
            (1, 2, 3, 6, 3, 1, 1),
            (2, 1, 2, 6, 2, 2, 0),
        ],
    )
    def test_matches_scipy_reference(self, n, ic, oc, size, k, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((n, ic, size, size, size)).astype(np.float32)
        w = rng.standard_normal((oc, ic, k, k, k)).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        got = conv3d_forward(x, w, b, stride, padding)
        want = reference_conv3d(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    def test_identity_kernel(self):
        """A 1x1x1 kernel with weight 1 copies the input channel."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 4, 4, 4)).astype(np.float32)
        w = np.ones((1, 1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_allclose(conv3d_forward(x, w), x)

    def test_anisotropic_stride(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 7, 9, 11)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
        got = conv3d_forward(x, w, stride=(1, 2, 3))
        want = reference_conv3d(x, w, stride=(1, 2, 3))
        assert got.shape == (1, 3, 5, 4, 3)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    def test_dtype_preserved(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        assert conv3d_forward(x, w).dtype == np.float32

    def test_output_contiguous(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        w = np.zeros((2, 1, 3, 3, 3), dtype=np.float32)
        assert conv3d_forward(x, w).flags["C_CONTIGUOUS"]

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv3d_forward(
                np.zeros((1, 2, 4, 4, 4), dtype=np.float32),
                np.zeros((1, 3, 3, 3, 3), dtype=np.float32),
            )

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((2, 4, 4, 4)), np.zeros((1, 2, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((1, 2, 4, 4, 4)), np.zeros((2, 3, 3, 3)))

    def test_linearity(self):
        """conv(a*x1 + x2) == a*conv(x1) + conv(x2) (no bias)."""
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float32)
        x2 = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float32)
        lhs = conv3d_forward(2.0 * x1 + x2, w)
        rhs = 2.0 * conv3d_forward(x1, w) + conv3d_forward(x2, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-4)


def numerical_grad(f, x, eps=1e-3):
    """Central-difference gradient of scalar f w.r.t. array x (float64)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestBackward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1)])
    def test_backward_data_matches_numerical(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float64)
        out_shape = conv3d_output_shape(x.shape[2:], (3, 3, 3), stride, padding)
        g = rng.standard_normal((1, 3) + out_shape).astype(np.float64)

        def loss():
            return float(np.sum(conv3d_forward(x, w, None, stride, padding) * g))

        want = numerical_grad(loss, x)
        got = conv3d_backward_data(g, w, x.shape[2:], stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1)])
    def test_backward_weights_matches_numerical(self, stride, padding):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 5, 5, 5)).astype(np.float64)
        w = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float64)
        out_shape = conv3d_output_shape(x.shape[2:], (3, 3, 3), stride, padding)
        g = rng.standard_normal((2, 2) + out_shape).astype(np.float64)

        def loss():
            return float(np.sum(conv3d_forward(x, w, None, stride, padding) * g))

        want = numerical_grad(loss, w)
        got = conv3d_backward_weights(x, g, (3, 3, 3), stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_backward_bias(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float64)
        x = rng.standard_normal((2, 2, 6, 6, 6)).astype(np.float64)
        _, gb = conv3d_backward_weights(x, g, (3, 3, 3), with_bias=True)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3, 4)))

    def test_backward_data_shape_validation(self):
        g = np.zeros((1, 2, 4, 4, 4))
        w = np.zeros((2, 1, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_data(g, w, (5, 5, 5))  # expects 3^3 output from 5^3

    def test_backward_weights_shape_validation(self):
        x = np.zeros((1, 1, 5, 5, 5))
        g = np.zeros((1, 2, 4, 4, 4))
        with pytest.raises(ValueError):
            conv3d_backward_weights(x, g, (3, 3, 3))

    def test_batch_mismatch_raises(self):
        x = np.zeros((2, 1, 5, 5, 5))
        g = np.zeros((1, 2, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_weights(x, g, (3, 3, 3))

    def test_grad_channel_mismatch_raises(self):
        g = np.zeros((1, 3, 3, 3, 3))
        w = np.zeros((2, 1, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_data(g, w, (5, 5, 5))


# ---------------------------------------------------------------------------
# The one-GEMM-per-pass formulation
# ---------------------------------------------------------------------------

#: The one fp32 tolerance of ``gemm`` against a float64 reference or the
#: Algorithm 1 specification (relative to the largest reference
#: magnitude): the kernels differ from a direct convolution only by fp32
#: summation order.
FP32_RTOL = 2e-4
FP64_RTOL = 1e-10


def naive_conv3d_passes(x, w, g, stride, padding):
    """float64 kernel-offset loop — the formulation the GEMM kernels
    replaced, kept as the reference.  Returns ``(out, grad_x, grad_w)``
    for output gradient ``g`` (no bias)."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    od, oh, ow = g.shape[2:]
    out = np.zeros(g.shape)
    gxp = np.zeros(xp.shape)
    gw = np.zeros(w.shape)
    s = stride
    for zd in range(w.shape[2]):
        for zh in range(w.shape[3]):
            for zw in range(w.shape[4]):
                win = (
                    slice(None),
                    slice(None),
                    slice(zd, zd + s * od, s),
                    slice(zh, zh + s * oh, s),
                    slice(zw, zw + s * ow, s),
                )
                out += np.einsum("oi,nidhw->nodhw", w[:, :, zd, zh, zw], xp[win])
                gxp[win] += np.einsum("oi,nodhw->nidhw", w[:, :, zd, zh, zw], g)
                gw[:, :, zd, zh, zw] = np.einsum("nodhw,nidhw->oi", g, xp[win])
    crop = tuple(slice(p, dim - p) for dim in xp.shape[2:])
    return out, gxp[(slice(None), slice(None)) + crop], gw


def strided_like(a, view):
    """``a``'s values behind different memory strides: contiguous, every
    second element of a wider buffer, or a flipped (negatively strided)
    view — augmented volumes arrive as flips."""
    if view == "contiguous":
        return a
    if view == "noncontiguous":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    flipped = np.ascontiguousarray(a[:, :, ::-1, :, ::-1])
    return flipped[:, :, ::-1, :, ::-1]


def assert_close(got, want, dtype):
    rtol = FP32_RTOL if dtype == np.float32 else FP64_RTOL
    assert got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestOneGemmPerPass:
    # IC 1 unrolls all three kernel axes (27 <= 128); IC 5 (135) and 16
    # keep whole W-rows and apply the kw taps after the GEMM.
    @pytest.mark.parametrize("view", ["contiguous", "noncontiguous", "flipped"])
    @pytest.mark.parametrize("ic", [1, 5, 16])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_passes_match_naive_float64(self, dtype, stride, padding, n, ic, view):
        rng = np.random.default_rng(11)
        oc, k = 4, 3
        x = rng.standard_normal((n, ic, 6, 7, 9)).astype(dtype)
        w = rng.standard_normal((oc, ic, k, k, k)).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype)
        out_shape = conv3d_output_shape(x.shape[2:], (k, k, k), stride, padding)
        g = rng.standard_normal((n, oc) + out_shape).astype(dtype)
        want_out, want_gx, want_gw = naive_conv3d_passes(x, w, g, stride, padding)

        xv, wv, gv = strided_like(x, view), strided_like(w, view), strided_like(g, view)
        out = conv3d_forward(xv, wv, b, stride, padding)
        assert out.flags["C_CONTIGUOUS"]
        assert_close(out, want_out + b.reshape(1, -1, 1, 1, 1), dtype)
        gx = conv3d_backward_data(gv, wv, x.shape[2:], stride, padding)
        assert gx.shape == x.shape and gx.flags["C_CONTIGUOUS"]
        assert_close(gx, want_gx, dtype)
        gw, gb = conv3d_backward_weights(xv, gv, (k, k, k), stride, padding, with_bias=True)
        assert gw.flags["C_CONTIGUOUS"]
        assert_close(gw, want_gw, dtype)
        assert_close(gb, g.astype(np.float64).sum(axis=(0, 2, 3, 4)), dtype)

    # Against Algorithm 1 itself (the paper's blocked loop nest, forward):
    # IC 1 is conv1's ragged input block, OW 32 spans two 28-voxel width
    # blocks, 24 -> 20 channels end in a ragged block on both sides.
    @pytest.mark.parametrize(
        "n,ic,oc,spatial",
        [
            pytest.param(2, 1, 16, (6, 7, 8), id="ic1"),
            pytest.param(2, 16, 16, (6, 7, 8), id="ic16"),
            pytest.param(1, 1, 16, (5, 5, 34), id="two_width_blocks"),
            pytest.param(1, 24, 20, (5, 6, 7), id="ragged_channels"),
        ],
    )
    def test_matches_algorithm1_forward(self, n, ic, oc, spatial):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((n, ic) + spatial).astype(np.float32)
        w = rng.standard_normal((oc, ic, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        assert_close(conv3d_forward(x, w, b), algorithm1_forward(x, w, b), np.float32)

    @pytest.mark.parametrize("preset", [tiny_16, scaled_32])
    def test_algorithm1_on_preset_layers(self, preset):
        config = preset()
        rng = np.random.default_rng(14)
        sizes = [config.input_size] + config.spatial_sizes()
        ic = config.input_channels
        for size, spec in zip(sizes, config.conv_layers):
            x = rng.standard_normal((1, ic, size, size, size)).astype(np.float32)
            w = rng.standard_normal((spec.out_channels, ic) + (spec.kernel,) * 3).astype(np.float32)
            assert_close(conv3d_forward(x, w), algorithm1_forward(x, w), np.float32)
            ic = spec.out_channels

    def test_anisotropic_kernel_stride_and_padding(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 6, 7, 8, 9))
        w = rng.standard_normal((3, 6, 2, 3, 4))
        stride, padding = (2, 1, 3), (1, 0, 2)
        out = conv3d_forward(x, w, None, stride, padding)
        g = rng.standard_normal(out.shape)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 0), (2, 2)))
        want = reference_conv3d(xp, w, stride=stride)
        np.testing.assert_allclose(out, want, rtol=FP64_RTOL, atol=FP64_RTOL)
        # <conv(x), g> == <x, conv^T(g)> and its weight-side twin.
        gx = conv3d_backward_data(g, w, x.shape[2:], stride, padding)
        gw = conv3d_backward_weights(x, g, w.shape[2:], stride, padding)
        assert np.sum(out * g) == pytest.approx(np.sum(x * gx), rel=1e-10)
        assert np.sum(out * g) == pytest.approx(np.sum(w * gw), rel=1e-10)

    @staticmethod
    def _three_passes(x, w, b, g, stride, padding):
        k = w.shape[2:]
        return (
            conv3d_forward(x, w, b, stride, padding),
            conv3d_backward_data(g, w, x.shape[2:], stride, padding),
            *conv3d_backward_weights(x, g, k, stride, padding, with_bias=True),
        )

    @staticmethod
    def _case(rng, ic, stride, padding, n=2):
        x = rng.standard_normal((n, ic, 6, 7, 9)).astype(np.float32)
        w = rng.standard_normal((4, ic, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out_shape = conv3d_output_shape(x.shape[2:], (3, 3, 3), stride, padding)
        g = rng.standard_normal((n, 4) + out_shape).astype(np.float32)
        return x, w, b, g

    @pytest.mark.parametrize("ic", [1, 16])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_repeat_is_bitwise_after_a_different_same_shaped_call(self, ic, stride, padding):
        """Stale-buffer guard: nothing a call leaves behind — packed rows,
        the zero margins and stride gaps of the shifted gradient — may
        leak into the next call of the same shape."""
        rng = np.random.default_rng(14)
        case = self._case(rng, ic, stride, padding)
        first = self._three_passes(*case, stride, padding)
        other = tuple(np.full_like(a, 7.0) for a in case)
        self._three_passes(*other, stride, padding)
        again = self._three_passes(*case, stride, padding)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_concurrent_threads_equal_serial_bitwise(self):
        """Threaded, elastic and stale backends run ranks as threads of
        one process, all on the same layer shapes."""
        import sys
        import threading

        n_threads, rounds = 4, 6
        rng = np.random.default_rng(15)
        cases = [self._case(rng, 16, 1, 0) for _ in range(n_threads)]
        serial = [self._three_passes(*c, 1, 0) for c in cases]
        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def rank(i):
            barrier.wait(timeout=30)
            for _ in range(rounds):
                results[i] = self._three_passes(*cases[i], 1, 0)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=rank, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        for got, want in zip(results, serial):
            assert got is not None
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("ic", [1, 16])
    def test_packed_operand_round_trip(self, ic):
        """forward/backward-weights given ``conv3d_pack``'s operand equal
        the calls that pack for themselves."""
        rng = np.random.default_rng(16)
        x, w, b, g = self._case(rng, ic, 2, 1, n=1)
        packed = conv3d_pack(x, (3, 3, 3), 2, 1)
        np.testing.assert_array_equal(
            conv3d_forward(x, w, b, 2, 1, packed=packed), conv3d_forward(x, w, b, 2, 1)
        )
        np.testing.assert_array_equal(
            conv3d_backward_weights(x, g, (3, 3, 3), 2, 1, packed=packed),
            conv3d_backward_weights(x, g, (3, 3, 3), 2, 1),
        )

    def test_foreign_packed_operand_rejected(self):
        rng = np.random.default_rng(17)
        x, w, b, g = self._case(rng, 16, 1, 0)
        packed = conv3d_pack(x[:1], (3, 3, 3))
        with pytest.raises(ValueError, match="packed operand"):
            conv3d_forward(x, w, b, packed=packed)
        with pytest.raises(ValueError, match="packed operand"):
            conv3d_backward_weights(x, g, (3, 3, 3), packed=packed)

    def test_untaped_forward_packs_in_bounded_slabs(self, monkeypatch):
        """Without ``packed=`` the forward packs one sample and a bounded
        slab of output depth at a time; slabbing must not change values."""
        from repro.primitives import conv3d as kernels

        rng = np.random.default_rng(18)
        x, w, b, _ = self._case(rng, 16, 1, 1, n=3)
        whole = conv3d_forward(x, w, b, 1, 1)
        biggest = []
        real_pack = kernels._pack

        def spy(xp, plan):
            rows = real_pack(xp, plan)
            biggest.append(rows.size)
            return rows

        monkeypatch.setattr(kernels, "_pack", spy)
        monkeypatch.setattr(kernels, "_PACK_MAX_ELEMS", 2 * 16 * 9 * 7 * 11)
        np.testing.assert_array_equal(conv3d_forward(x, w, b, 1, 1), whole)
        assert len(biggest) == 3 * 3  # 3 samples x (6 output planes / 2 per slab)
        assert max(biggest) <= 2 * 16 * 9 * 7 * 11

    def test_tape_keeps_each_forwards_own_packed_rows(self):
        """A backward that runs only after a second same-shaped taped
        forward and an untaped one still sees its own forward's input."""
        from repro.tensor import Tensor
        from repro.tensor.tensor import Parameter, no_grad
        from tests.primitives.test_conv3d_backward import conv

        rng = np.random.default_rng(19)
        x1, w, b, g = self._case(rng, 16, 1, 0)
        x2 = rng.standard_normal(x1.shape).astype(np.float32)
        weight, bias = Parameter(w), Parameter(b)
        layer = conv(weight, bias)
        y1 = layer(Tensor(x1))
        layer(Tensor(x2))
        with no_grad():
            layer(Tensor(x2 * 3))
        y1.backward(g)
        want_w, want_b = conv3d_backward_weights(x1, g, (3, 3, 3), with_bias=True)
        np.testing.assert_array_equal(weight.grad, want_w)
        np.testing.assert_array_equal(bias.grad, want_b)

    def test_oversized_operand_is_not_kept_on_the_tape(self, monkeypatch):
        """Past ``_PACK_MAX_ELEMS`` nothing is handed out to be held from
        forward to backward; both passes pack for themselves, same values."""
        from repro.primitives import conv3d as kernels
        from repro.tensor import Tensor
        from repro.tensor.tensor import Parameter
        from tests.primitives.test_conv3d_backward import conv

        rng = np.random.default_rng(20)
        x, w, b, g = self._case(rng, 16, 1, 0)
        monkeypatch.setattr(kernels, "_PACK_MAX_ELEMS", conv3d_pack(x, (3, 3, 3)).size - 1)
        assert conv3d_pack(x, (3, 3, 3)) is None
        weight, bias = Parameter(w), Parameter(b)
        y = conv(weight, bias)(Tensor(x))
        np.testing.assert_array_equal(y.data, conv3d_forward(x, w, b))
        y.backward(g)
        want_w, want_b = conv3d_backward_weights(x, g, (3, 3, 3), with_bias=True)
        np.testing.assert_array_equal(weight.grad, want_w)
        np.testing.assert_array_equal(bias.grad, want_b)

    def test_forward_accumulates_in_the_wider_dtype(self):
        """fp16 activations with fp32 weights: the W-tap sums are taken in
        fp32 and rounded to the input dtype once."""
        rng = np.random.default_rng(21)
        x, w, b, _ = self._case(rng, 16, 1, 0)
        x16 = x.astype(np.float16)
        got = conv3d_forward(x16, w, b)
        exact = conv3d_forward(x16.astype(np.float32), w, b)
        assert got.dtype == np.float16
        np.testing.assert_array_equal(got, exact.astype(np.float16))
        packed = conv3d_pack(x16, (3, 3, 3))
        np.testing.assert_array_equal(conv3d_forward(x16, w, b, packed=packed), got)
